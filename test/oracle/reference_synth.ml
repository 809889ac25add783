(* The seed closure-based synthesis path: list- and hashtable-based [ms]
   fixpoint, detection guards as semantic closures, set-based invariant
   recomputation and whole-span rescanning recovery layering, driven over
   systems built by {!Reference_ts}.

   It is the oracle of the synthesis differential suite: on every program
   the production kernels of {!Detcor_synthesis.Synthesize} must produce
   extensionally identical programs, invariants, counts and reports.  The
   orchestration (fail-safe front end, attempt ladder, counterexample-
   guided repair loop) repeats the production one step for step, so a
   divergence points at a kernel. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec
open Detcor_core
open Detcor_obs
open Detcor_synthesis.Synthesize

module State_tbl = Hashtbl.Make (struct
  type t = State.t

  let equal = State.equal
  let hash = State.hash
end)

(* A budget trip inside a synthesis fixpoint surfaces as an [Exhausted]
   outcome rather than an escaping exception, mirroring the per-obligation
   [Unknown] of {!Tolerance}: the caller always gets a value stating
   whether synthesis succeeded, failed, or was left undecided. *)
let surface_exhaustion f =
  try f () with
  | Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Resource r) ->
    Error (Exhausted r)
  | Ts.Too_large n ->
    Error
      (Exhausted
         {
           Detcor_robust.Error.kind = Detcor_robust.Error.States;
           spent = n;
           budget = n;
         })

(* [ms ts_pf ~fault_ids ~sspec]: the states from which the fault actions
   alone can reach a safety violation — the backward fixpoint over fault
   edges seeded with the bad states and the sources of bad fault
   transitions. *)
let compute_ms ts_pf ~fault_ids ~sspec =
  Obs.span "synth.compute_ms" @@ fun () ->
  let n = Ts.num_states ts_pf in
  let is_fault = Array.make (Ts.num_actions ts_pf) false in
  List.iter (fun i -> is_fault.(i) <- true) fault_ids;
  let in_ms = Array.make n false in
  let fault_preds = Array.make n [] in
  let queue = Queue.create () in
  let add i =
    if not in_ms.(i) then begin
      in_ms.(i) <- true;
      Queue.add i queue
    end
  in
  Ts.iter_edges ts_pf (fun i aid j ->
      if is_fault.(aid) then begin
        fault_preds.(j) <- i :: fault_preds.(j);
        if Safety.bad_transition sspec (Ts.state ts_pf i) (Ts.state ts_pf j)
        then add i
      end);
  for i = 0 to n - 1 do
    if Safety.bad_state sspec (Ts.state ts_pf i) then add i
  done;
  let processed = ref 0 in
  Progress.with_phase "synth.ms"
    (fun () -> [ ("iterations", !processed); ("queue", Queue.length queue) ])
    (fun () ->
      while not (Queue.is_empty queue) do
        Detcor_robust.Budget.tick ();
        let j = Queue.pop queue in
        incr processed;
        List.iter add fault_preds.(j)
      done);
  in_ms

(* [mt]: a transition a safe program must never take — already a bad
   transition, or into a bad state, or into [ms].  [in_ms_at] answers ms
   membership by state index, whatever the representation. *)
let make_mt ts_pf ~in_ms_at ~sspec s s' =
  Safety.bad_transition sspec s s'
  || Safety.bad_state sspec s'
  ||
  match Ts.index_of ts_pf s' with Some j -> in_ms_at j | None -> false

(* The detection guard added to action [ac]: executing [ac] here neither
   violates safety nor lands in [ms].  This is the weakest detection
   predicate of [ac] for the [mt]-extended safety specification. *)
let detection_guard ts_pf ~in_ms_at ~sspec ac =
  Pred.make
    (Fmt.str "wdp(%s)" (Action.name ac))
    (fun st ->
      (not (Safety.bad_state sspec st))
      && (match Ts.index_of ts_pf st with
         | Some i -> not (in_ms_at i)
         | None -> true)
      && List.for_all
           (fun st' -> not (make_mt ts_pf ~in_ms_at ~sspec st st'))
           (Action.execute ac st))

let restrict_with guards p =
  let restricted =
    List.map (fun (ac, g) -> (Action.name ac, g, Action.restrict g ac)) guards
  in
  let program =
    Program.make
      ~name:(Fmt.str "failsafe(%s)" (Program.name p))
      ~vars:(Program.var_decls p)
      ~actions:(List.map (fun (_, _, ac) -> ac) restricted)
  in
  let added = List.map (fun (name, g, _) -> (name, g)) restricted in
  (program, added)

(* Recompute the invariant: start from a candidate set, then iteratively
   drop states that the restriction newly deadlocked (states that could
   move in [p] but cannot in the restricted program within the shrinking
   set).  The candidate is the original invariant minus [ms] for plain
   recomputation, or the whole ms-complement for the weakening search. *)
let recompute_invariant ~candidate p restricted =
  let module SS = Set.Make (State) in
  let initial = List.filter candidate (Program.states p) in
  let rec fix set =
    let keep st =
      let originally_live = not (Program.deadlocked p st) in
      if not originally_live then true
      else
        List.exists
          (fun (_, st') -> SS.mem st' set)
          (Program.successors restricted st)
    in
    let set' = SS.filter keep set in
    if SS.cardinal set' = SS.cardinal set then set else fix set'
  in
  let final = fix (SS.of_list initial) in
  SS.elements final

(* The corrector's own detection predicate: the span states from which the
   program alone, under weak fairness, is NOT guaranteed to reach [target]
   — some maximal fair program-only computation stays in ¬target forever
   (ending in a deadlock or cycling through a fair SCC).  Ranked recovery
   is gated to exactly these states: where the program already converges,
   an added recovery action is not a corrector but a competitor — it races
   the program's own convergence under interleaving fairness and seeds
   fair cycles the repair loop then has to ban one by one.  The
   distributed-reset protocol is the extreme case: it is its own corrector
   (every span state self-converges), so the synthesized recovery is
   empty.

   The result is a fixpoint-defined set, hence extensionally identical
   whichever engine built [ts_p]. *)
let needs_recovery_tbl ?limit p ~target states =
  Obs.span "synth.needs_recovery" @@ fun () ->
  let ts_p = Reference_ts.build ?limit p ~from:states in
  let n = Ts.num_states ts_p in
  let not_q = Array.init n (fun i -> not (Ts.holds_at ts_p target i)) in
  let seeds = ref [] in
  for i = 0 to n - 1 do
    if not_q.(i) && Ts.deadlocked ts_p i then seeds := i :: !seeds
  done;
  List.iter
    (fun (scc : Graph.scc) -> seeds := scc.Graph.members @ !seeds)
    (Fairness.fair_sccs ~mask:(fun i -> not_q.(i)) ts_p);
  let tbl = Hashtbl.create 64 in
  if !seeds <> [] then begin
    let preds = Array.make n [] in
    Ts.iter_edges ts_p (fun i _ j ->
        if not_q.(i) && not_q.(j) then preds.(j) <- i :: preds.(j));
    let seen = Array.make n false in
    let queue = Queue.create () in
    let add i =
      if not seen.(i) then begin
        seen.(i) <- true;
        Queue.add i queue
      end
    in
    List.iter add !seeds;
    while not (Queue.is_empty queue) do
      Detcor_robust.Budget.tick ();
      let j = Queue.pop queue in
      Hashtbl.replace tbl (State.to_string (Ts.state ts_p j)) ();
      List.iter add preds.(j)
    done
  end;
  tbl

(* Rank-0 seed for the layering: the target itself plus every
   self-convergent state. *)
let gated_rank0 ~target needs =
  if Hashtbl.length needs = 0 then Pred.true_
  else
    Pred.make "target-or-self-convergent" (fun st ->
        Pred.holds target st || not (Hashtbl.mem needs (State.to_string st)))

type recovery = {
  moves : int; (* states given a recovery transition *)
  action : Action.t;
  move_to : State.t -> State.t option;
      (* the chosen recovery step from a state, if any — the repair loop
         reads it to turn cycle witnesses into edge bans *)
}

(* [synthesize_recovery ~allowed ~target states]: rank the given states by
   backward BFS from the target set over allowed candidate steps, then
   build the recovery action "move one layer closer".  Returns the states
   that cannot reach the target (minimal first) and whether the anti-undo
   veto rejected any otherwise-qualifying candidate.

   [banned] is the repair loop's hard edge veto.  [use_undo] additionally
   vetoes any step [s -> t] the program can immediately undo (the program
   has the span transition [t -> s]): such a step is the seed of a fair
   cycle in which the corrector races the program forever.  After
   ranking, the deadlock-target repair pass gives every target state the
   program cannot leave (and every state in [forced], fed back from
   deadlock witnesses) a move to another target state — preferring
   targets the program can leave; a move between two stalled targets is a
   last resort kept acyclic by the repair loop's bans.  Those moves start
   inside the target region, i.e. in fault-free behavior, so they must
   satisfy [repair_allowed] (defaults to [allowed]) even where ranked
   recovery is unrestricted, and a move from an [invariant] state must
   stay in [invariant]. *)
let synthesize_recovery ?(step_vars = 1) ?(banned = fun _ _ -> false)
    ?(use_undo = false) ?(forced = fun _ -> false) ?repair_allowed ?rank0
    ~allowed ~target ~invariant p states =
  Obs.span "synth.recovery" ~attrs:[ Attr.int "states" (List.length states) ]
  @@ fun () ->
  let rank0 = match rank0 with Some r -> r | None -> target in
  let rank = Hashtbl.create 256 in
  let key st = State.to_string st in
  let rank0_states = List.filter (Pred.holds rank0) states in
  List.iter (fun st -> Hashtbl.replace rank (key st) 0) rank0_states;
  let state_set = Hashtbl.create 256 in
  List.iter (fun st -> Hashtbl.replace state_set (key st) st) states;
  (* The program's own in-span steps, for the anti-undo veto: [s -> t] is
     undone when [t -> s] is a program transition.  Every layering source
     and target is a span state, so the semantic successor set coincides
     with the span's program edges. *)
  let undo_fired = ref false in
  let succ_keys = Hashtbl.create (if use_undo then 256 else 1) in
  if use_undo then
    List.iter
      (fun st ->
        Detcor_robust.Budget.tick ();
        Hashtbl.replace succ_keys (key st)
          (List.map (fun (_, st') -> key st') (Program.successors p st)))
      states;
  let undone k k' =
    use_undo
    &&
    match Hashtbl.find_opt succ_keys k' with
    | Some ks -> List.mem k ks
    | None -> false
  in
  (* Candidate steps do not depend on the level: generate each state's
     in-set neighbor list (with its keys) once, not once per level. *)
  let neighbor_lists = Hashtbl.create 256 in
  List.iter
    (fun st ->
      Detcor_robust.Budget.tick ();
      Hashtbl.replace neighbor_lists (key st)
        (List.filter_map
           (fun st' ->
             let k' = key st' in
             if Hashtbl.mem state_set k' then Some (k', st') else None)
           (neighbors ~step_vars p st)))
    states;
  (* Backward BFS: repeatedly find unranked states with a one-step move to
     a ranked state. *)
  let table = Hashtbl.create 64 in
  let changed = ref true in
  let level = ref 0 in
  while !changed do
    changed := false;
    incr level;
    let additions = ref [] in
    Hashtbl.iter
      (fun k st ->
        Detcor_robust.Budget.tick ();
        if not (Hashtbl.mem rank k) then begin
          let candidate =
            List.find_opt
              (fun (k', st') ->
                (match Hashtbl.find_opt rank k' with
                | Some r -> r < !level
                | None -> false)
                && allowed st st'
                && (not (banned st st'))
                &&
                if undone k k' then begin
                  undo_fired := true;
                  false
                end
                else true)
              (Hashtbl.find neighbor_lists k)
          in
          match candidate with
          | Some (_, st') -> additions := (k, st') :: !additions
          | None -> ()
        end)
      state_set;
    List.iter
      (fun (k, st') ->
        Hashtbl.replace rank k !level;
        Hashtbl.replace table k st';
        changed := true)
      !additions
  done;
  (* Deadlock-target repair (see the function comment).  Both passes make
     per-state decisions that depend only on the precomputed [stalled]
     set, so the iteration order is immaterial and the production
     layering reaches the same moves. *)
  let repair_allowed =
    match repair_allowed with Some f -> f | None -> allowed
  in
  let stalled = Hashtbl.create 16 in
  Hashtbl.iter
    (fun k st ->
      if
        Hashtbl.find_opt rank k = Some 0
        && (not (Hashtbl.mem table k))
        && (forced st || Program.deadlocked p st)
      then Hashtbl.replace stalled k st)
    state_set;
  let repair_pass ~relax =
    Hashtbl.iter
      (fun k st ->
        if not (Hashtbl.mem table k) then begin
          Detcor_robust.Budget.tick ();
          let pick =
            List.find_opt
              (fun (k', st') ->
                (* Destinations must satisfy the real target (not merely
                   rank 0): a repaired move starts inside the target
                   region, and a step to a self-convergent state outside
                   it would break the invariant's closure. *)
                Pred.holds target st'
                && ((not (Pred.holds invariant st)) || Pred.holds invariant st')
                && (relax || not (Hashtbl.mem stalled k'))
                && repair_allowed st st'
                && (not (banned st st'))
                &&
                if undone k k' then begin
                  undo_fired := true;
                  false
                end
                else true)
              (Hashtbl.find neighbor_lists k)
          in
          match pick with
          | Some (_, st') -> Hashtbl.replace table k st'
          | None -> ()
        end)
      stalled
  in
  repair_pass ~relax:false;
  repair_pass ~relax:true;
  let unrecoverable =
    Hashtbl.fold
      (fun k st acc -> if Hashtbl.mem rank k then acc else st :: acc)
      state_set []
    |> List.sort State.compare
  in
  let guard =
    Pred.make "needs-recovery" (fun st -> Hashtbl.mem table (key st))
  in
  let action =
    Action.deterministic "recovery" guard (fun st ->
        match Hashtbl.find_opt table (key st) with
        | Some st' -> st'
        | None -> st)
  in
  let move_to st = Hashtbl.find_opt table (key st) in
  ({ moves = Hashtbl.length table; action; move_to }, unrecoverable, !undo_fired)

(* Bound on the relayering rounds driven by verification witnesses.
   Every round adds at least one new edge ban or forced move, so the
   loop terminates on its own on any finite span; the cap bounds
   pathological instances, and every round still runs under the ambient
   {!Detcor_robust.Budget}. *)
let max_repair_rounds = 16

let skey = State.to_string

(* One synthesis attempt: layer with the anti-undo veto first; if that
   leaves unrecoverable states and the veto actually rejected a
   candidate, relax it (convergence through an undoable step beats no
   convergence — the repair loop can still ban the step if it does race);
   if the span is still not fully ranked with one-variable moves,
   escalate to two-variable moves.  [synth] is the layering closure. *)
let attempt_ladder ~step_vars ~synth =
  let attempts =
    [ (true, step_vars); (false, step_vars) ]
    @ (if step_vars <= 1 then [ (true, 2); (false, 2) ] else [])
  in
  let rec go last = function
    | [] -> (
      match last with Some (st :: _) -> Error st | _ -> assert false)
    | (use_undo, sv) :: rest -> (
      let recovery, unrecoverable, undo_fired =
        synth ~use_undo ~step_vars:sv
      in
      match unrecoverable with
      | [] -> Ok recovery
      | _ :: _ ->
        (* Dropping the veto can only change the outcome if the veto
           rejected something. *)
        let rest =
          if use_undo && not undo_fired then
            List.filter (fun (u, v) -> u || v <> sv) rest
          else rest
        in
        go (Some unrecoverable) rest)
  in
  go None attempts

(* Turn a failed verification into a layering repair.  A fair-cycle
   witness (the corrector races the program) bans the recovery edges
   inside the cycle, so the next layering routes around it; a deadlock
   witness at a state without a recovery move forces the repair pass to
   give it one.  Returns false when the report holds no witness the
   layering can act on — the failure is then terminal. *)
let apply_witness (report : Tolerance.report) ~move_to ~bans ~forces =
  let progress = ref false in
  List.iter
    (fun (it : Tolerance.item) ->
      if not !progress then
        match it.Tolerance.outcome with
        | Check.Fails (Check.Fair_cycle states) ->
          let in_cycle = Hashtbl.create 16 in
          List.iter (fun s -> Hashtbl.replace in_cycle (skey s) ()) states;
          List.iter
            (fun s ->
              match move_to s with
              | Some t when Hashtbl.mem in_cycle (skey t) ->
                let k = (skey s, skey t) in
                if not (Hashtbl.mem bans k) then begin
                  Hashtbl.replace bans k ();
                  progress := true
                end
              | _ -> ())
            states
        | Check.Fails (Check.Deadlock st) -> (
          match move_to st with
          | Some _ -> ()
          | None ->
            let k = skey st in
            if not (Hashtbl.mem forces k) then begin
              Hashtbl.replace forces k ();
              progress := true
            end)
        | _ -> ())
    report.Tolerance.items;
  !progress

(* The repair loop shared by nonmasking and masking addition: layer,
   verify, and while the verdict is negative feed the witness back into
   the layering as bans and forced moves. *)
let repair_loop ~step_vars ~synth ~build ~verify ~bans ~forces =
  let rec go round =
    Detcor_robust.Budget.tick ();
    match attempt_ladder ~step_vars ~synth with
    | Error st -> Error (Unrecoverable_state st)
    | Ok recovery -> (
      let program = build recovery in
      let report = verify program in
      if Tolerance.verdict report then Ok (recovery, program, report, round)
      else if
        round >= max_repair_rounds
        || not (apply_witness report ~move_to:recovery.move_to ~bans ~forces)
      then Error (Verification_failed report)
      else begin
        if Obs.on () then
          Obs.event "synth.repair_round"
            ~attrs:
              [
                Attr.int "round" (round + 1);
                Attr.int "bans" (Hashtbl.length bans);
                Attr.int "forces" (Hashtbl.length forces);
              ];
        go (round + 1)
      end)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* The three transformations                                           *)
(* ------------------------------------------------------------------ *)

let failsafe_core ts_pf ~sspec ~fault_ids p ~invariant =
  let in_ms = compute_ms ts_pf ~fault_ids ~sspec in
  let in_ms_at i = in_ms.(i) in
  let not_ms st =
    match Ts.index_of ts_pf st with
    | Some i -> not (in_ms_at i)
    | None -> true
  in
  let guards =
    List.map
      (fun ac -> (ac, detection_guard ts_pf ~in_ms_at ~sspec ac))
      (Program.actions p)
  in
  let restricted, added = restrict_with guards p in
  let inv_states =
    recompute_invariant
      ~candidate:(fun st -> Pred.holds invariant st && not_ms st)
      p restricted
  in
  let inv_states, weakened =
    if inv_states <> [] then (inv_states, false)
    else
      ( recompute_invariant
          ~candidate:(fun st -> (not (Safety.bad_state sspec st)) && not_ms st)
          p restricted,
        true )
  in
  (restricted, added, inv_states, in_ms_at, weakened)

let add_failsafe ?limit p ~spec ~invariant ~faults =
  surface_exhaustion @@ fun () ->
  let sspec = Spec.safety (Spec.smallest_safety_containing spec) in
  let ts_pf = Reference_ts.full ?limit (Fault.compose p faults) in
  let fault_ids = Ts.action_ids_of_names ts_pf (Fault.action_names faults) in
  let restricted, added, inv_states, _, weakened =
    failsafe_core ts_pf ~sspec ~fault_ids p ~invariant
  in
  if inv_states = [] then Error Empty_invariant
  else begin
    let invariant' =
      Pred.of_states
        ~name:(if weakened then "S_failsafe_weakened" else "S_failsafe")
        inv_states
    in
    let report =
      Tolerance.check_with ?limit restricted ~spec ~invariant:invariant'
        ~init:inv_states ~faults ~tol:Spec.Failsafe
    in
    if Tolerance.verdict report then
      Ok
        {
          program = restricted;
          invariant = invariant';
          report;
          added_detectors = added;
          recovery_states = 0;
          repair_iterations = 0;
        }
    else Error (Verification_failed report)
  end

let edge_vetoes () =
  let bans = Hashtbl.create 8 in
  let forces = Hashtbl.create 8 in
  let banned s t = Hashtbl.length bans > 0 && Hashtbl.mem bans (skey s, skey t) in
  let forced st = Hashtbl.length forces > 0 && Hashtbl.mem forces (skey st) in
  (bans, forces, banned, forced)

let add_nonmasking ?limit ?(step_vars = 1) p ~spec ~invariant ~faults =
  surface_exhaustion @@ fun () ->
  let init = List.filter (Pred.holds invariant) (Program.states p) in
  if init = [] then Error Empty_invariant
  else begin
    let sspec = Spec.safety (Spec.smallest_safety_containing spec) in
    let ts_span = Reference_ts.build ?limit (Fault.compose p faults) ~from:init in
    let bans, forces, banned, forced = edge_vetoes () in
    let repair_ok s t =
      (not (Safety.bad_state sspec t)) && not (Safety.bad_transition sspec s t)
    in
    let needs =
      needs_recovery_tbl ?limit p ~target:invariant (Ts.states ts_span)
    in
    let rank0 = gated_rank0 ~target:invariant needs in
    let synth ~use_undo ~step_vars =
      synthesize_recovery ~step_vars ~banned ~use_undo ~forced
        ~repair_allowed:repair_ok ~rank0
        ~allowed:(fun _ _ -> true)
        ~target:invariant ~invariant p (Ts.states ts_span)
    in
    let build recovery =
      Program.add_actions p [ recovery.action ]
      |> Program.with_name (Fmt.str "nonmasking(%s)" (Program.name p))
    in
    let verify program =
      Tolerance.check_with ?limit program ~spec ~invariant ~init ~faults
        ~tol:Spec.Nonmasking
    in
    match repair_loop ~step_vars ~synth ~build ~verify ~bans ~forces with
    | Error f -> Error f
    | Ok (recovery, program, report, rounds) ->
      Ok
        {
          program;
          invariant;
          report;
          added_detectors = [];
          recovery_states = recovery.moves;
          repair_iterations = rounds;
        }
  end

let add_masking ?limit ?(step_vars = 1) ?target p ~spec ~invariant ~faults =
  surface_exhaustion @@ fun () ->
  let sspec = Spec.safety (Spec.smallest_safety_containing spec) in
  let ts_pf = Reference_ts.full ?limit (Fault.compose p faults) in
  let fault_ids = Ts.action_ids_of_names ts_pf (Fault.action_names faults) in
  let restricted, added, inv_states, in_ms_at, weakened =
    failsafe_core ts_pf ~sspec ~fault_ids p ~invariant
  in
  if inv_states = [] then Error Empty_invariant
  else begin
    let invariant' =
      Pred.of_states
        ~name:(if weakened then "S_masking_weakened" else "S_masking")
        inv_states
    in
    let target = match target with Some t -> t | None -> invariant' in
    let ts_span =
      Reference_ts.build ?limit (Fault.compose restricted faults) ~from:inv_states
    in
    let bans, forces, banned, forced = edge_vetoes () in
    let needs =
      needs_recovery_tbl ?limit restricted ~target (Ts.states ts_span)
    in
    let rank0 = gated_rank0 ~target needs in
    let allowed s s' = not (make_mt ts_pf ~in_ms_at ~sspec s s') in
    let synth ~use_undo ~step_vars =
      synthesize_recovery ~step_vars ~banned ~use_undo ~forced ~allowed ~rank0
        ~target ~invariant:invariant' restricted (Ts.states ts_span)
    in
    let build recovery =
      Program.add_actions restricted [ recovery.action ]
      |> Program.with_name (Fmt.str "masking(%s)" (Program.name p))
    in
    let verify program =
      Tolerance.check_with ?limit program ~spec ~invariant:invariant'
        ~init:inv_states ~faults ~tol:Spec.Masking
    in
    match repair_loop ~step_vars ~synth ~build ~verify ~bans ~forces with
    | Error f -> Error f
    | Ok (recovery, program, report, rounds) ->
      Ok
        {
          program;
          invariant = invariant';
          report;
          added_detectors = added;
          recovery_states = recovery.moves;
          repair_iterations = rounds;
        }
  end
