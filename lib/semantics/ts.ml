(* Explicit-state transition systems.

   A transition system is the semantic graph of a program: nodes are states,
   edges are (action, successor) pairs.  It is built either from a set of
   initial states (forward reachability) or over the full product space.
   All decision procedures of the library (closure, convergence, leads-to,
   fairness, safety) run on this structure.

   One engine explores, with two residency modes:

   - [Packed] (the default): a [Layout] compiles the program's variables
     and domains to integer indices once, states are interned by their
     packed rank (a single int), edges land in CSR (compressed sparse row)
     arrays, and predicate / guard evaluations are memoized in per-system
     bitsets so [holds_at] and [enabled] answer in O(1) after one sweep.
     Frontier expansion can fan out over OCaml 5 domains ([?workers]) with
     a deterministic in-order merge, so the numbering is independent of the
     worker count.
   - [Sharded]: the same exploration order over hash-partitioned arenas
     that spill to disk (see [build_sharded]).

   Initial states are explored in [State.compare] order and states are
   expanded in id order, so both modes produce identical state numbering,
   edge arrays and initials.  A successor outside the declared domains has
   no rank: it is reported as a located type error naming the action, the
   source state and the escaped variable, never explored.  The list-based
   oracle the differential suites compare against lives under [test/]. *)

open Detcor_kernel
open Detcor_obs

(* Engine metrics.  Every update is gated by [Obs.on ()] — one ref read
   and a branch — so construction with observability disabled matches the
   uninstrumented engine (the E11 bench claim). *)
let m_states = Metrics.counter "engine.states_visited"

(* Live twin of [m_states]: advanced during construction rather than in
   bulk at [finish], so a telemetry scrape mid-construction sees the
   build move.  Gated on recording or armed heartbeats, and batched
   through a plain local counter — an atomic RMW per interned state is
   measurable on small hot builds.  The pending cell's races across
   domains are benign: a lost batch only makes the live view lag, and
   [finish] flushes the remainder. *)
let m_live_states = Metrics.counter "engine.states"
let live_batch = 64
let live_pending = ref 0

let live_state_interned () =
  incr live_pending;
  if !live_pending >= live_batch then begin
    Metrics.incr ~by:!live_pending m_live_states;
    live_pending := 0
  end

let live_flush () =
  if !live_pending > 0 then begin
    Metrics.incr ~by:!live_pending m_live_states;
    live_pending := 0
  end
let m_edges = Metrics.counter "engine.edges"
let m_builds = Metrics.counter "engine.builds"
let m_pred_hits = Metrics.counter "engine.pred_cache.hits"
let m_pred_misses = Metrics.counter "engine.pred_cache.misses"
let m_enabled_hits = Metrics.counter "engine.enabled_cache.hits"
let m_enabled_misses = Metrics.counter "engine.enabled_cache.misses"
let m_par_expanded = Metrics.counter "engine.parallel.states_expanded"
let h_frontier = Metrics.histogram "engine.frontier_width"
let h_worker_chunk = Metrics.histogram "engine.worker_chunk"

(* Lost-worker degradation: counted unconditionally (a retried chunk is a
   correctness-relevant event, not a tuning signal). *)
let m_worker_retries = Metrics.counter "robust.worker_retries"

type engine = Packed | Sharded

type t = {
  program : Program.t;
  states : State.t array;
  actions : Action.t array;
  (* CSR adjacency: edges of state [i] occupy [row_ptr.(i) .. row_ptr.(i+1))
     of [edge_action]/[edge_target]. *)
  row_ptr : int array;
  edge_action : int array;
  edge_target : int array;
  initials : int list;
  lookup : State.t -> int option;
  layout : Layout.t;
  pred_cache : (int, Bitset.t) Hashtbl.t; (* keyed by Pred.id *)
  enabled_cache : Bitset.t option array; (* per action id *)
  (* The out-of-core store, present iff built by the sharded engine; the
     flat arrays above are then empty and every accessor dispatches. *)
  shard : Shard_store.t option;
}

exception Too_large of int

let default_limit = 2_000_000

(* ------------------------------------------------------------------ *)
(* Growable construction buffers.                                      *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable states_buf : State.t array;
  mutable count : int;
  mutable ea : int array; (* edge action ids *)
  mutable et : int array; (* edge targets *)
  mutable elen : int;
  mutable rows : int array; (* rows.(i+1) = end offset of state i's edges *)
  mutable expanded : int; (* states with closed rows: 0..expanded-1 *)
  limit : int;
}

let new_builder ~limit =
  {
    states_buf = Array.make 1024 State.empty;
    count = 0;
    ea = Array.make 4096 0;
    et = Array.make 4096 0;
    elen = 0;
    rows = Array.make 1025 0;
    expanded = 0;
    limit;
  }

let add_state b st =
  let i = b.count in
  if i >= b.limit then raise (Too_large b.limit);
  if Obs.on () || Progress.armed () then live_state_interned ();
  Detcor_robust.Budget.count_state ();
  let cap = Array.length b.states_buf in
  if i >= cap then begin
    let states' = Array.make (2 * cap) State.empty in
    Array.blit b.states_buf 0 states' 0 cap;
    b.states_buf <- states';
    let rows' = Array.make ((2 * cap) + 1) 0 in
    Array.blit b.rows 0 rows' 0 (cap + 1);
    b.rows <- rows'
  end;
  b.states_buf.(i) <- st;
  b.count <- i + 1;
  i

let push_edge b aid j =
  let cap = Array.length b.ea in
  if b.elen >= cap then begin
    let ea' = Array.make (2 * cap) 0 and et' = Array.make (2 * cap) 0 in
    Array.blit b.ea 0 ea' 0 cap;
    Array.blit b.et 0 et' 0 cap;
    b.ea <- ea';
    b.et <- et'
  end;
  b.ea.(b.elen) <- aid;
  b.et.(b.elen) <- j;
  b.elen <- b.elen + 1

(* Mark the end of state [i]'s edge row (states are expanded in id order).
   [expanded] trails it: everything below is a consistent CSR prefix, which
   is exactly what a checkpoint capture may persist. *)
let close_row b i =
  b.rows.(i + 1) <- b.elen;
  b.expanded <- i + 1

(* ------------------------------------------------------------------ *)
(* Checkpoint payloads for the packed construction loops.               *)
(* ------------------------------------------------------------------ *)

(* A capture persists the closed-row CSR prefix plus (for the BFS, which
   discovers states as it goes) the packed rank of every state interned
   so far.  Captures fire from [Budget] checkpoints on the orchestrating
   domain only: at those points states [0..count) are fully written and
   edges beyond [rows.(expanded)] belong to a half-merged row, so the
   prefix below is consistent by construction.  Restoring re-interns the
   ranks in id order and resumes expansion at [expanded]; everything
   downstream is deterministic, so the finished system is byte-identical
   to an uninterrupted build. *)
type build_snap = {
  s_ranks : int array; (* rank of state i; empty for the full walk *)
  s_rows : int array; (* rows.(0 .. expanded) *)
  s_ea : int array; (* closed edges only *)
  s_et : int array;
  s_expanded : int;
}

let ensure_edges b n =
  let cap = Array.length b.ea in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let ea' = Array.make cap' 0 and et' = Array.make cap' 0 in
    Array.blit b.ea 0 ea' 0 b.elen;
    Array.blit b.et 0 et' 0 b.elen;
    b.ea <- ea';
    b.et <- et'
  end

let snap_of_builder ?(ranks = [||]) b =
  let closed = b.rows.(b.expanded) in
  {
    s_ranks = ranks;
    s_rows = Array.sub b.rows 0 (b.expanded + 1);
    s_ea = Array.sub b.ea 0 closed;
    s_et = Array.sub b.et 0 closed;
    s_expanded = b.expanded;
  }

let restore_edges b snap =
  let closed = snap.s_rows.(snap.s_expanded) in
  ensure_edges b closed;
  Array.blit snap.s_ea 0 b.ea 0 closed;
  Array.blit snap.s_et 0 b.et 0 closed;
  b.elen <- closed;
  Array.blit snap.s_rows 0 b.rows 0 (snap.s_expanded + 1);
  b.expanded <- snap.s_expanded

let make_system program actions ~states ~row_ptr ~edge_action ~edge_target
    ~initials ~lookup ~layout ~shard =
  {
    program;
    states;
    actions;
    row_ptr;
    edge_action;
    edge_target;
    initials;
    lookup;
    layout;
    shard;
    pred_cache = Hashtbl.create 16;
    enabled_cache = Array.make (Array.length actions) None;
  }

(* A system explored outside this module, in CSR form.  Queries run on
   the flat arrays exactly as on a packed system. *)
let assemble program ~states ~row_ptr ~edge_action ~edge_target ~initials
    ~lookup =
  make_system program
    (Array.of_list (Program.actions program))
    ~states ~row_ptr ~edge_action ~edge_target ~initials ~lookup
    ~layout:(Layout.compile program) ~shard:None

let finish b ~program ~actions ~initials ~lookup ~layout =
  let n = b.count in
  if Obs.on () || Progress.armed () then live_flush ();
  if Obs.on () then begin
    Metrics.incr m_builds;
    Metrics.incr ~by:n m_states;
    Metrics.incr ~by:b.elen m_edges
  end;
  make_system program actions
    ~states:(Array.sub b.states_buf 0 n)
    ~row_ptr:(Array.sub b.rows 0 (n + 1))
    ~edge_action:(Array.sub b.ea 0 b.elen)
    ~edge_target:(Array.sub b.et 0 b.elen)
    ~initials ~lookup ~layout ~shard:None

(* ------------------------------------------------------------------ *)
(* Domain escapes.                                                     *)
(* ------------------------------------------------------------------ *)

(* A successor that [Layout.pack] rejects left the program's declared
   domains.  No rank represents it, so the exploration stops with a
   type error located at the step that produced it. *)
let escape_error ~action ~src e =
  Detcor_robust.Error.type_error
    "action %s steps from %s outside the declared domains: %a" action
    (State.to_string src) Layout.pp_escape e

(* Some successor of [src] failed to pack: re-execute the actions to find
   the first escaping one in edge order.  Expansion loops wrap a whole
   state in one handler and call this only on the failure path, so the
   hot loops allocate exactly as they would without the check. *)
let escape_at layout actions src =
  Array.iter
    (fun ac ->
      List.iter
        (fun st' ->
          try ignore (Layout.pack layout st')
          with Layout.Unrepresentable e ->
            escape_error ~action:(Action.name ac) ~src e)
        (Action.execute ac src))
    actions;
  Detcor_robust.Error.internal "Ts: no successor of %s escapes"
    (State.to_string src)

let pack_initial layout st =
  match Layout.pack layout st with
  | rank -> rank
  | exception Layout.Unrepresentable e ->
    Detcor_robust.Error.type_error
      "initial state %s is outside the declared domains: %a"
      (State.to_string st) Layout.pp_escape e

(* ------------------------------------------------------------------ *)
(* Packed engine: rank-interned states, optional parallel frontier.    *)
(* ------------------------------------------------------------------ *)

(* Successors of [st] under all actions, with packed ranks, in the same
   deterministic order as the sequential loop.  Pure: safe to run from
   worker domains. *)
let successors_packed layout actions st =
  Detcor_robust.Budget.tick ();
  let acc = ref [] in
  (try
     Array.iteri
       (fun aid ac ->
         List.iter
           (fun st' -> acc := (aid, st', Layout.pack layout st') :: !acc)
           (Action.execute ac st))
       actions
   with Layout.Unrepresentable _ -> escape_at layout actions st);
  List.rev !acc

(* Expand the frontier slice [lo, hi) in parallel: split it into [workers]
   chunks, compute successor lists in worker domains, and merge them back
   in id order so the numbering matches the sequential engine exactly.

   A worker that dies with a toolkit error re-raises it at its merge
   position: a tripped budget cancels the build, and a domain escape is
   the located error the sequential loop would raise first, since chunks
   merge in id order.  A worker that dies of anything else is degraded,
   not fatal: its chunk is recomputed sequentially on this domain at the
   point its results would have merged, so ordering — and therefore the
   numbering — is unchanged.
   Returns the number of lost workers so the caller can shrink the pool. *)
let expand_parallel layout actions b index ~lo ~hi ~workers =
  let len = hi - lo in
  let chunk = (len + workers - 1) / workers in
  let slices =
    List.init workers (fun w ->
        let start = lo + (w * chunk) in
        let stop = min hi (start + chunk) in
        if start >= stop then [||]
        else Array.init (stop - start) (fun k -> b.states_buf.(start + k)))
  in
  let domains =
    List.map
      (fun slice ->
        Stdlib.Domain.spawn (fun () ->
            try
              Detcor_robust.Failpoint.hit "engine.worker";
              let succs = Array.map (successors_packed layout actions) slice in
              (* Incremented from the worker domain: the counters must be
                 atomic under parallel exploration (tested). *)
              if Obs.on () then
                Metrics.incr ~by:(Array.length slice) m_par_expanded;
              Ok succs
            with e -> Error e))
      slices
  in
  if Obs.on () then
    List.iter
      (fun slice ->
        let len = Array.length slice in
        if len > 0 then Metrics.observe h_worker_chunk len)
      slices;
  let results = List.map Stdlib.Domain.join domains in
  let merge i succs =
    Detcor_robust.Budget.tick ();
    List.iter
      (fun (aid, st', rank) ->
        let j =
          match Hashtbl.find_opt index rank with
          | Some j -> j
          | None ->
            let j = add_state b st' in
            Hashtbl.add index rank j;
            j
        in
        push_edge b aid j)
      succs;
    close_row b i
  in
  let cursor = ref lo in
  let consume per_state =
    Array.iter
      (fun succs ->
        merge !cursor succs;
        incr cursor)
      per_state
  in
  let retried = ref 0 in
  List.iteri
    (fun w result ->
      match result with
      | Ok per_state -> consume per_state
      | Error (Detcor_robust.Error.Detcor_error _ as e) -> raise e
      | Error e ->
        incr retried;
        Metrics.incr m_worker_retries;
        if Obs.on () then
          Obs.event "ts.worker_retry" ~level:Attr.Warn
            ~attrs:[ Attr.str "exn" (Printexc.to_string e) ];
        consume
          (Array.map (successors_packed layout actions) (List.nth slices w)))
    results;
  !retried

let explore_packed ~workers layout program ~actions ~b ~index ~initials =
  let intern_code st rank =
    match Hashtbl.find_opt index rank with
    | Some i -> i
    | None ->
      let i = add_state b st in
      Hashtbl.add index rank i;
      i
  in
  let phase = Detcor_robust.Checkpoint.enter ~kind:"ts.bfs" in
  (match Detcor_robust.Checkpoint.resume_data phase with
  | Some (Detcor_robust.Checkpoint.Midway data)
  | Some (Detcor_robust.Checkpoint.Done data) ->
    let snap : build_snap = Marshal.from_string data 0 in
    (* Re-intern in id order: the snapshot's rank sequence is the
       discovery order, so ids land exactly where they were.  States
       the caller already interned (initials) occupy the prefix. *)
    Array.iteri
      (fun i rank ->
        if i >= b.count then
          ignore (intern_code (Layout.unpack layout rank) rank))
      snap.s_ranks;
    restore_edges b snap
  | None -> ());
  let capture () =
    Marshal.to_string
      (snap_of_builder b
         ~ranks:(Array.init b.count (fun i -> Layout.pack layout b.states_buf.(i))))
      []
  in
  Detcor_robust.Checkpoint.set_capture phase capture;
  (* A lost worker shrinks the pool for the rest of the build. *)
  let eff_workers = ref workers in
  let cursor = ref b.expanded in
  let level = ref 0 in
  Progress.with_phase "engine.bfs"
    (fun () ->
      [
        ("states", b.count);
        ("frontier", b.count - b.expanded);
        ("workers", !eff_workers);
      ])
    (fun () ->
      while !cursor < b.count do
        let lo = !cursor in
        let hi = b.count in
        if Obs.on () then begin
          Metrics.observe h_frontier (hi - lo);
          Obs.event "ts.frontier" ~level:Attr.Debug
            ~attrs:[ Attr.int "depth" !level; Attr.int "width" (hi - lo) ];
          incr level
        end;
        if !eff_workers > 1 && hi - lo >= max 2 (!eff_workers * 8) then begin
          let lost =
            expand_parallel layout actions b index ~lo ~hi ~workers:!eff_workers
          in
          if lost > 0 then eff_workers := max 1 (!eff_workers - lost)
        end
        else
          for i = lo to hi - 1 do
            Detcor_robust.Budget.tick ();
            let st = b.states_buf.(i) in
            (try
               Array.iteri
                 (fun aid ac ->
                   List.iter
                     (fun st' ->
                       push_edge b aid
                         (intern_code st' (Layout.pack layout st')))
                     (Action.execute ac st))
                 actions
             with Layout.Unrepresentable _ -> escape_at layout actions st);
            close_row b i
          done;
        cursor := hi
      done);
  Detcor_robust.Checkpoint.complete phase (capture ());
  finish b ~program ~actions ~initials
    ~lookup:(fun st ->
      match Layout.pack_opt layout st with
      | None -> None
      | Some rank -> Hashtbl.find_opt index rank)
    ~layout

let build_packed ~limit ~workers layout program ~from =
  let actions = Array.of_list (Program.actions program) in
  let index : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let b = new_builder ~limit in
  (* Sorting by rank is sorting by State.compare (Layout invariant): the
     initial numbering is State.compare order. *)
  let ranked = List.map (fun st -> (pack_initial layout st, st)) from in
  let ranked =
    List.sort_uniq (fun (r1, _) (r2, _) -> Int.compare r1 r2) ranked
  in
  let initials =
    List.map
      (fun (rank, st) ->
        match Hashtbl.find_opt index rank with
        | Some i -> i
        | None ->
          let i = add_state b st in
          Hashtbl.add index rank i;
          i)
      ranked
  in
  explore_packed ~workers layout program ~actions ~b ~index ~initials

(* Packed [full]: every product state is present, so a state's index IS
   its rank — no interning table at all.  States are materialized in rank
   order (= State.compare order) and successors resolve to indices with
   one [Layout.pack].  With [workers], the
   execute+pack phase fans out over rank chunks; the merge is a plain
   append in id order, so the result is independent of the worker count. *)
let successor_ranks layout actions ~rank st =
  Detcor_robust.Budget.tick ();
  let acc = ref [] in
  (try
     Array.iteri
       (fun aid ac ->
         List.iter
           (fun st' ->
             acc := (aid, Layout.pack_from layout ~src_rank:rank st st') :: !acc)
           (Action.execute ac st))
       actions
   with Layout.Unrepresentable _ -> escape_at layout actions st);
  List.rev !acc

let full_packed ~limit ~workers layout program =
  let actions = Array.of_list (Program.actions program) in
  let b = new_builder ~limit in
  (* The exact state count is known up front: size the buffers once
     instead of doubling through a dozen reallocations. *)
  let space = Layout.space layout in
  if space > Array.length b.states_buf && space <= limit then begin
    b.states_buf <- Array.make space State.empty;
    b.rows <- Array.make (space + 1) 0;
    b.ea <- Array.make space 0;
    b.et <- Array.make space 0
  end;
  Layout.iter_scratch layout (fun sc ->
      ignore (add_state b (State.scratch_copy sc)));
  let n = b.count in
  let phase = Detcor_robust.Checkpoint.enter ~kind:"ts.full" in
  (match Detcor_robust.Checkpoint.resume_data phase with
  | Some (Detcor_robust.Checkpoint.Midway data)
  | Some (Detcor_robust.Checkpoint.Done data) ->
    (* State i IS rank i here: the materialization above already rebuilt
       every state, so only the edge prefix needs restoring. *)
    restore_edges b (Marshal.from_string data 0 : build_snap)
  | None -> ());
  let capture () = Marshal.to_string (snap_of_builder b) [] in
  Detcor_robust.Checkpoint.set_capture phase capture;
  let base = b.expanded in
  Progress.with_phase "engine.full"
    (fun () -> [ ("expanded", b.expanded); ("states", n) ])
  @@ fun () ->
  if workers > 1 && n - base >= max 2 (workers * 8) then begin
    let chunk = (n - base + workers - 1) / workers in
    let bounds w = (base + (w * chunk), min n (base + ((w + 1) * chunk))) in
    let expand_chunk w =
      let lo, hi = bounds w in
      Array.init (max 0 (hi - lo)) (fun k ->
          successor_ranks layout actions ~rank:(lo + k) b.states_buf.(lo + k))
    in
    let domains =
      List.init workers (fun w ->
          Stdlib.Domain.spawn (fun () ->
              try
                Detcor_robust.Failpoint.hit "engine.worker";
                let succs = expand_chunk w in
                if Obs.on () then
                  Metrics.incr ~by:(Array.length succs) m_par_expanded;
                Ok succs
              with e -> Error e))
    in
    let results = List.map Stdlib.Domain.join domains in
    let cursor = ref base in
    let consume per_state =
      Array.iter
        (fun succs ->
          Detcor_robust.Budget.tick ();
          List.iter (fun (aid, rank) -> push_edge b aid rank) succs;
          close_row b !cursor;
          incr cursor)
        per_state
    in
    List.iteri
      (fun w result ->
        match result with
        | Ok per_state -> consume per_state
        | Error (Detcor_robust.Error.Detcor_error _ as e) -> raise e
        | Error e ->
          (* Lost worker: recompute its chunk here, in merge position. *)
          Metrics.incr m_worker_retries;
          if Obs.on () then
            Obs.event "ts.worker_retry" ~level:Attr.Warn
              ~attrs:[ Attr.str "exn" (Printexc.to_string e) ];
          consume (expand_chunk w))
      results
  end
  else
    for i = base to n - 1 do
      Detcor_robust.Budget.tick ();
      let st = b.states_buf.(i) in
      (try
         Array.iteri
           (fun aid ac ->
             List.iter
               (fun st' ->
                 push_edge b aid (Layout.pack_from layout ~src_rank:i st st'))
               (Action.execute ac st))
           actions
       with Layout.Unrepresentable _ -> escape_at layout actions st);
      close_row b i
    done;
  Detcor_robust.Checkpoint.complete phase (capture ());
  finish b ~program ~actions
    ~initials:(List.init n Fun.id)
    ~lookup:(fun st -> Layout.pack_opt layout st)
    ~layout

(* Packed [of_pred]: stream the product space in rank order (which is
   State.compare order), interning matches on the fly — no intermediate
   lists and no sorting. *)
let of_pred_packed ~limit ~workers layout program ~from =
  let actions = Array.of_list (Program.actions program) in
  let index : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let b = new_builder ~limit in
  let rank = ref 0 in
  Layout.iter_scratch layout (fun sc ->
      if Pred.holds from (State.scratch_view sc) then
        Hashtbl.add index !rank (add_state b (State.scratch_copy sc));
      incr rank);
  let initials = List.init b.count Fun.id in
  explore_packed ~workers layout program ~actions ~b ~index ~initials

(* ------------------------------------------------------------------ *)
(* Sharded engine: hash-partitioned, disk-spillable arenas.            *)
(* ------------------------------------------------------------------ *)

(* Process-wide parameters for the sharded engine — threaded here rather
   than through every [?engine] signature in [Tolerance]/[Synthesize];
   [dcheck] sets them once from its flags before dispatching. *)
let shard_params = ref (4, (None : string option), 512)

let set_shard_defaults ~shards ~spill_dir ~arena_budget_mb =
  shard_params := (max 1 shards, spill_dir, max 0 arena_budget_mb)

let shard_defaults () = !shard_params

(* Frontier window: sources expanded between outbox merges.  Bounds the
   outbox bytes in flight without adding a barrier per source. *)
let shard_window = 32_768

(* BFS over the shard store.  The exploration order is identical to the
   packed engine's — seeds interned in ascending rank order, frontier
   sources expanded in gid order, successors merged in (source,
   position) order — so the numbering, edge arrays and initials are
   byte-identical where both engines can run.  What changes is
   residency: state and CSR arenas live in per-shard segments that
   spill to checksummed files under the configured directory once the
   resident bytes exceed the arena budget.

   Checkpointing: the store itself is the capture.  Snapshots are only
   consistent at level barriers (mid-level, the open CSR accumulators
   and outboxes are not serializable), so the capture closure returns
   the snapshot taken at the last completed barrier; resume restores
   the store there and replays the lost level deterministically.  Spill
   files written by the interrupted run are content-identical and are
   reused, never rewritten. *)
let build_sharded ~limit ~workers layout program ~seed_ranks =
  let actions = Array.of_list (Program.actions program) in
  let shards, spill_dir, budget_mb = !shard_params in
  let k = min shards Shard_store.max_shards in
  let arena_budget = budget_mb * 1024 * 1024 in
  let fingerprint =
    Detcor_robust.Checkpoint.digest
      [
        "ts.shard";
        Program.name program;
        string_of_int (Layout.space layout);
        string_of_int k;
      ]
  in
  let on_intern () =
    if Obs.on () || Progress.armed () then live_state_interned ()
  in
  let phase = Detcor_robust.Checkpoint.enter ~kind:"ts.shard" in
  let store =
    match Detcor_robust.Checkpoint.resume_data phase with
    | Some (Detcor_robust.Checkpoint.Midway data)
    | Some (Detcor_robust.Checkpoint.Done data) ->
      Shard_store.restore ~on_intern ~layout ~limit ~spill_dir ~arena_budget
        ~fingerprint data
    | None ->
      let store =
        Shard_store.create ~on_intern ~k ~layout ~limit ~spill_dir
          ~arena_budget ~fingerprint ()
      in
      Array.iter (fun r -> ignore (Shard_store.intern store r)) seed_ranks;
      store
  in
  let initials = List.init (Array.length seed_ranks) Fun.id in
  (* Barrier snapshots cost a full manifest walk; only maintain them
     when a checkpoint session wants captures. *)
  let track = Detcor_robust.Checkpoint.active () in
  let latest = ref (if track then Shard_store.snapshot store else "") in
  Detcor_robust.Checkpoint.set_capture phase (fun () -> !latest);
  let frontier_width = ref 0 in
  let level = ref 0 in
  (* Expand one source into the outbox.  Pure appends: each (producer,
     owner) lane is written by exactly one caller. *)
  let expand_gid ob sc gid =
    Detcor_robust.Budget.tick ();
    let rank = Shard_store.rank_of store gid in
    Layout.unpack_into layout sc rank;
    let st = State.scratch_copy sc in
    let producer = Shard_store.shard_of store gid in
    let pos = ref 0 in
    try
      Array.iteri
        (fun aid ac ->
          List.iter
            (fun st' ->
              let rank' = Layout.pack_from layout ~src_rank:rank st st' in
              Shard_store.Outbox.put ob ~producer ~gid ~pos:!pos ~aid
                ~rank:rank';
              incr pos)
            (Action.execute ac st))
        actions
    with Layout.Unrepresentable _ -> escape_at layout actions st
  in
  let expand_range ob lo wend =
    let sc = Layout.scratch layout in
    for gid = lo to wend - 1 do
      expand_gid ob sc gid
    done
  in
  (* Parallel variant: one domain per producer-shard group.  Frontier
     segments are resident until sealed, so worker reads never fault a
     reload; lanes stay single-writer because each producer shard is
     expanded by exactly one domain.  Worker failures propagate (a
     half-written lane is not recoverable the way a packed chunk is); a
     domain escape is re-raised by a sequential pass over the window, so
     the error names the first escaping source in gid order whatever the
     worker count. *)
  let expand_parallel_sharded ob lo wend ~workers =
    let w = min workers k in
    let domains =
      List.init w (fun d ->
          Stdlib.Domain.spawn (fun () ->
              try
                let sc = Layout.scratch layout in
                for gid = lo to wend - 1 do
                  if Shard_store.shard_of store gid mod w = d then
                    expand_gid ob sc gid
                done;
                if Obs.on () then
                  Metrics.incr ~by:(wend - lo) m_par_expanded;
                Ok ()
              with e -> Error e))
    in
    let results = List.map Stdlib.Domain.join domains in
    List.iter
      (function
        | Ok () -> ()
        | Error
            (Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Type_error _)
             as e) ->
          expand_range (Shard_store.Outbox.create store) lo wend;
          raise e
        | Error e -> raise e)
      results
  in
  let ob = Shard_store.Outbox.create store in
  (try
     Progress.with_phase "engine.bfs"
       (fun () ->
         let spills, _, _ = Shard_store.spill_stats store in
         [
           ("states", Shard_store.num_states store);
           ("frontier", !frontier_width);
           ("shards", k);
           ("spills", spills);
           ("workers", max 1 workers);
         ])
       (fun () ->
         let continue = ref true in
         while !continue do
           let lo, hi = Shard_store.begin_level store in
           if lo >= hi then continue := false
           else begin
             frontier_width := hi - lo;
             if Obs.on () then begin
               Metrics.observe h_frontier (hi - lo);
               Obs.event "ts.frontier" ~level:Attr.Debug
                 ~attrs:
                   [ Attr.int "depth" !level; Attr.int "width" (hi - lo) ];
               incr level
             end;
             let w = ref lo in
             while !w < hi do
               let wend = min hi (!w + shard_window) in
               if workers > 1 && wend - !w >= max 2 (workers * 8) then
                 expand_parallel_sharded ob !w wend ~workers
               else expand_range ob !w wend;
               Shard_store.merge store ob ~lo:!w ~hi:wend;
               w := wend
             done;
             Shard_store.end_level store;
             if track then latest := Shard_store.snapshot store
           end
         done)
   with Shard_store.Limit n -> raise (Too_large n));
  Detcor_robust.Checkpoint.complete phase
    (if track then !latest else "");
  if Obs.on () || Progress.armed () then live_flush ();
  if Obs.on () then begin
    Metrics.incr m_builds;
    Metrics.incr ~by:(Shard_store.num_states store) m_states;
    Metrics.incr ~by:(Shard_store.num_edges store) m_edges
  end;
  make_system program actions ~states:[||] ~row_ptr:[| 0 |] ~edge_action:[||]
    ~edge_target:[||] ~initials
    ~lookup:(fun st ->
      match Layout.pack_opt layout st with
      | None -> None
      | Some rank -> Shard_store.find store rank)
    ~layout ~shard:(Some store)

(* Seed rank sets for the three construction surfaces.  Sorting by rank
   is sorting by [State.compare] (the [Layout] invariant), so initials
   match the packed mode. *)
let sharded_of_states layout from =
  let ranks = List.map (pack_initial layout) from in
  Array.of_list (List.sort_uniq Int.compare ranks)

let sharded_of_pred layout from =
  let buf = ref [] in
  let rank = ref 0 in
  Layout.iter_scratch layout (fun sc ->
      if Pred.holds from (State.scratch_view sc) then buf := !rank :: !buf;
      incr rank);
  Array.of_list (List.rev !buf)

(* ------------------------------------------------------------------ *)
(* Engine dispatch.                                                    *)
(* ------------------------------------------------------------------ *)

let engine_name = function Packed -> "packed" | Sharded -> "sharded"

(* Wrap a construction entry point in a span annotated, on completion,
   with the size of what was built; [f] receives the program's layout. *)
let build_span op program engine f =
  Obs.span "ts.build"
    ~attrs:
      [
        Attr.str "op" op;
        Attr.str "program" (Program.name program);
        Attr.str "engine" (engine_name engine);
      ]
    (fun () ->
      let ts = f (Layout.compile program) in
      if Obs.on () then begin
        let states, edges =
          match ts.shard with
          | Some store ->
            (Shard_store.num_states store, Shard_store.num_edges store)
          | None -> (Array.length ts.states, ts.row_ptr.(Array.length ts.states))
        in
        Obs.annotate [ Attr.int "states" states; Attr.int "edges" edges ]
      end;
      ts)

let build ?(limit = default_limit) ?(engine = Packed) ?(workers = 1) program
    ~from =
  build_span "build" program engine (fun layout ->
      match engine with
      | Packed -> build_packed ~limit ~workers layout program ~from
      | Sharded ->
        build_sharded ~limit ~workers layout program
          ~seed_ranks:(sharded_of_states layout from))

let full ?(limit = default_limit) ?(engine = Packed) ?(workers = 1) program =
  if Program.space_size program > limit then raise (Too_large limit);
  build_span "full" program engine (fun layout ->
      match engine with
      | Packed -> full_packed ~limit ~workers layout program
      | Sharded ->
        build_sharded ~limit ~workers layout program
          ~seed_ranks:(Array.init (Layout.space layout) Fun.id))

let of_pred ?(limit = default_limit) ?(engine = Packed) ?(workers = 1) program
    ~from =
  build_span "of_pred" program engine (fun layout ->
      match engine with
      | Packed -> of_pred_packed ~limit ~workers layout program ~from
      | Sharded ->
        build_sharded ~limit ~workers layout program
          ~seed_ranks:(sharded_of_pred layout from))

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)
(* ------------------------------------------------------------------ *)

let program ts = ts.program

let num_states ts =
  match ts.shard with
  | Some store -> Shard_store.num_states store
  | None -> Array.length ts.states

(* Sharded access decodes on the fly: the rank comes from the store (a
   spilled segment reloads transparently), the state from the layout. *)
let state ts i =
  match ts.shard with
  | Some store ->
    Layout.unpack ts.layout (Shard_store.rank_of store i)
  | None -> ts.states.(i)

let states ts =
  match ts.shard with
  | Some store ->
    let layout = ts.layout in
    let acc = ref [] in
    Shard_store.iter_ranks store (fun _ rank ->
        acc := Layout.unpack layout rank :: !acc);
    List.rev !acc
  | None -> Array.to_list ts.states

let initials ts = ts.initials
let actions ts = ts.actions
let num_actions ts = Array.length ts.actions
let action ts i = ts.actions.(i)


let shard_stats ts =
  match ts.shard with
  | None -> None
  | Some store ->
    let spills, bytes, reloads = Shard_store.spill_stats store in
    Some (Shard_store.k store, spills, bytes, reloads)

let num_edges ts =
  match ts.shard with
  | Some store -> Shard_store.num_edges store
  | None -> ts.row_ptr.(Array.length ts.states)

let edges_of ts i =
  match ts.shard with
  | Some store ->
    let acc = ref [] in
    Shard_store.iter_out store i (fun aid j -> acc := (aid, j) :: !acc);
    List.rev !acc
  | None ->
    let lo = ts.row_ptr.(i) and hi = ts.row_ptr.(i + 1) in
    let rec go k acc =
      if k < lo then acc
      else go (k - 1) ((ts.edge_action.(k), ts.edge_target.(k)) :: acc)
    in
    go (hi - 1) []

let iter_out ts i f =
  match ts.shard with
  | Some store -> Shard_store.iter_out store i f
  | None ->
    let hi = ts.row_ptr.(i + 1) in
    for k = ts.row_ptr.(i) to hi - 1 do
      f ts.edge_action.(k) ts.edge_target.(k)
    done

let out_degree ts i =
  match ts.shard with
  | Some store -> Shard_store.out_degree store i
  | None -> ts.row_ptr.(i + 1) - ts.row_ptr.(i)

let fold_out ts i f init =
  let acc = ref init in
  iter_out ts i (fun aid j -> acc := f !acc aid j);
  !acc

let index_of ts st = ts.lookup st

let action_id ts name =
  let found = ref None in
  Array.iteri
    (fun i ac -> if String.equal (Action.name ac) name then found := Some i)
    ts.actions;
  !found

(* Ids of actions whose names are in [names]; used to separate fault actions
   from program actions in a composed system. *)
let action_ids_of_names ts names =
  let module S = Set.Make (String) in
  let set = S.of_list names in
  let ids = ref [] in
  Array.iteri
    (fun i ac -> if S.mem (Action.name ac) set then ids := i :: !ids)
    ts.actions;
  List.rev !ids

let iter_edges ts f =
  match ts.shard with
  | Some store -> Shard_store.iter_edges store f
  | None ->
    let n = num_states ts in
    for i = 0 to n - 1 do
      Detcor_robust.Budget.tick ();
      iter_out ts i (fun aid j -> f i aid j)
    done

let fold_edges ts f init =
  let acc = ref init in
  iter_edges ts (fun i aid j -> acc := f !acc i aid j);
  !acc

(* ------------------------------------------------------------------ *)
(* Reverse adjacency.                                                  *)
(* ------------------------------------------------------------------ *)

(* Reverse CSR over a class of actions: the in-edges of each state whose
   action id passes [keep], in two prefix-summed arrays.  Built in two
   O(edges) sweeps; backward fixpoints (the synthesizer's [ms]) iterate
   predecessors without per-state lists or re-deriving successors. *)
type reverse = {
  rev_ptr : int array; (* in-edges of state j occupy [rev_ptr.(j) .. rev_ptr.(j+1)) *)
  rev_action : int array;
  rev_source : int array;
}

let reverse ?(keep = fun _ -> true) ts =
  let n = num_states ts in
  let counts = Array.make (n + 1) 0 in
  let total = ref 0 in
  iter_edges ts (fun _ aid j ->
      if keep aid then begin
        counts.(j + 1) <- counts.(j + 1) + 1;
        incr total
      end);
  for j = 1 to n do
    counts.(j) <- counts.(j) + counts.(j - 1)
  done;
  let rev_ptr = Array.copy counts in
  let rev_action = Array.make !total 0 in
  let rev_source = Array.make !total 0 in
  let cursor = Array.copy counts in
  iter_edges ts (fun i aid j ->
      if keep aid then begin
        let k = cursor.(j) in
        rev_action.(k) <- aid;
        rev_source.(k) <- i;
        cursor.(j) <- k + 1
      end);
  { rev_ptr; rev_action; rev_source }

let iter_in rev j f =
  let hi = rev.rev_ptr.(j + 1) in
  for k = rev.rev_ptr.(j) to hi - 1 do
    f rev.rev_action.(k) rev.rev_source.(k)
  done

(* ------------------------------------------------------------------ *)
(* Cached predicate and guard queries.                                 *)
(* ------------------------------------------------------------------ *)

(* [pred_bitset ts pred]: the bitset of states satisfying [pred].  The
   sweep runs once per predicate instance and is memoized. *)
let pred_bitset ts pred =
  let compute () =
    match ts.shard with
    | Some store ->
      (* One gid-order sweep decoding ranks into a scratch buffer: no
         state allocation per visit, spilled segments stream through. *)
      let layout = ts.layout in
      let sc = Layout.scratch layout in
      let bits = Bitset.create (Shard_store.num_states store) in
      Shard_store.iter_ranks store (fun gid rank ->
          Layout.unpack_into layout sc rank;
          if Pred.holds pred (State.scratch_view sc) then Bitset.set bits gid);
      bits
    | None ->
      let n = num_states ts in
      let bits = Bitset.create n in
      for i = 0 to n - 1 do
        if Pred.holds pred ts.states.(i) then Bitset.set bits i
      done;
      bits
  in
  let key = Pred.id pred in
  match Hashtbl.find_opt ts.pred_cache key with
  | Some bits ->
    if Obs.on () then Metrics.incr m_pred_hits;
    bits
  | None ->
    if Obs.on () then Metrics.incr m_pred_misses;
    let bits = compute () in
    Hashtbl.add ts.pred_cache key bits;
    bits

let holds_at ts pred i = Bitset.get (pred_bitset ts pred) i

let enabled_bitset ts aid =
  let compute () =
    let guard = Action.guard ts.actions.(aid) in
    match ts.shard with
    | Some store ->
      let layout = ts.layout in
      let sc = Layout.scratch layout in
      let bits = Bitset.create (Shard_store.num_states store) in
      Shard_store.iter_ranks store (fun gid rank ->
          Layout.unpack_into layout sc rank;
          if Pred.holds guard (State.scratch_view sc) then Bitset.set bits gid);
      bits
    | None ->
      let n = num_states ts in
      let bits = Bitset.create n in
      for i = 0 to n - 1 do
        if Pred.holds guard ts.states.(i) then Bitset.set bits i
      done;
      bits
  in
  match ts.enabled_cache.(aid) with
  | Some bits ->
    if Obs.on () then Metrics.incr m_enabled_hits;
    bits
  | None ->
    if Obs.on () then Metrics.incr m_enabled_misses;
    let bits = compute () in
    ts.enabled_cache.(aid) <- Some bits;
    bits

(* [enabled ts i aid]: is action [aid] enabled at state [i]?  Computed from
   the guard, not from edges: an enabled action always yields at least one
   successor in this framework, but checking the guard is cheaper than
   scanning edges and also correct for actions with empty statements. *)
let enabled ts i aid = Bitset.get (enabled_bitset ts aid) i

let deadlocked ts i =
  let n = Array.length ts.actions in
  let rec go aid =
    if aid >= n then true else (not (enabled ts i aid)) && go (aid + 1)
  in
  go 0

let satisfying ts pred =
  let bits = pred_bitset ts pred in
  let result = ref [] in
  for i = num_states ts - 1 downto 0 do
    if Bitset.get bits i then result := i :: !result
  done;
  !result

let pp_stats ppf ts =
  Fmt.pf ppf "%d states, %d transitions, %d actions" (num_states ts)
    (num_edges ts) (num_actions ts)
