(* Barrier computation — the first case study the paper's introduction
   lists for the component-based design method.

   n processes advance through P phases; the barrier property says a
   process may enter phase k+1 only when no peer is still below phase k.
   Variables: ph.i in 0..P-1 (terminating computation; the run ends when
   everyone reaches P-1), plus the fault class's restart counter
   [losses] in 0..n, which the programs declare but never write.

   - the intolerant program caches the barrier check: a process first
     *detects* "nobody is behind me" into a flag done.i, then advances on
     the flag.  Correct in the absence of faults — but the cached witness
     goes stale when a fault restarts a peer, and the process overtakes
     it: the classic stale-detector failure;
   - the tolerant program evaluates the detector witness "I am a minimum"
     (∀j: ph.j >= ph.i) at the advance itself — exactly the weakest
     detection predicate of the advance action;
   - fault: phase loss — a process is reset to phase 0 (a restart).

   With the fresh detector the system is masking tolerant: phase loss
   only ever *lowers* a phase, the guarded peers wait, and the restarted
   process catches up — recovery without a separate corrector, because
   the program's own progress actions double as the corrector of the
   window invariant. *)

open Detcor_kernel
open Detcor_spec
open Detcor_core

type config = {
  processes : int;
  phases : int;
}

let make_config ?(phases = 4) processes =
  if processes < 2 then invalid_arg "Barrier.make_config: need >= 2 processes";
  if phases < 2 then invalid_arg "Barrier.make_config: need >= 2 phases";
  { processes; phases }

let default = make_config 3

(* Variable names are read inside closures evaluated once per product
   state, so memoize the formatting. *)
let memo_var prefix =
  let cache = Hashtbl.create 16 in
  fun i ->
    match Hashtbl.find_opt cache i with
    | Some s -> s
    | None ->
      let s = Fmt.str "%s%d" prefix i in
      Hashtbl.add cache i s;
      s

let phvar = memo_var "ph"

let vars cfg =
  List.init cfg.processes (fun i -> (phvar i, Domain.range 0 (cfg.phases - 1)))
  @ [ ("losses", Domain.range 0 cfg.processes) ]

(* Restarts so far (states that do not bind the counter, as built by hand
   in tests, count as none). *)
let losses st =
  match State.find_opt st "losses" with Some (Value.Int n) -> n | _ -> 0

let no_losses = Pred.make "no losses" (fun st -> losses st = 0)

let phase st i = Value.as_int (State.get st (phvar i))

let procs cfg = List.init cfg.processes Fun.id

(* The barrier window: no two processes more than one phase apart. *)
let window cfg =
  let procs = procs cfg in
  Pred.make "phases within window 1" (fun st ->
      let phs = List.map (phase st) procs in
      let lo = List.fold_left min max_int phs in
      let hi = List.fold_left max min_int phs in
      hi - lo <= 1)

let all_done cfg =
  let procs = procs cfg in
  Pred.make "all at final phase" (fun st ->
      List.for_all (fun i -> phase st i = cfg.phases - 1) procs)

(* The detector witness of process i: nobody is behind me. *)
let is_minimum cfg i =
  let procs = procs cfg in
  Pred.make
    (Fmt.str "min_%d" i)
    (fun st -> List.for_all (fun j -> phase st j >= phase st i) procs)

let can_advance cfg i =
  Pred.make (Fmt.str "ph%d<last" i) (fun st -> phase st i < cfg.phases - 1)

let advance ?based_on ~guard name i =
  Action.deterministic ?based_on name guard (fun st ->
      State.set st (phvar i) (Value.int (phase st i + 1)))

let donevar = memo_var "done"

let done_flag i =
  Pred.make (Fmt.str "done%d" i) (fun st ->
      match State.find_opt st (donevar i) with
      | Some (Value.Bool b) -> b
      | Some _ | None -> false)

(* The fault-intolerant barrier: detect into a flag, advance on the flag.
   The flag is a cached witness that faults can make stale. *)
let intolerant cfg =
  let detect i =
    Action.deterministic
      (Fmt.str "detect%d" i)
      (Pred.and_
         (Pred.and_ (can_advance cfg i) (Pred.not_ (done_flag i)))
         (is_minimum cfg i))
      (fun st -> State.set st (donevar i) (Value.bool true))
  in
  let adv i =
    Action.deterministic
      (Fmt.str "adv%d" i)
      (Pred.and_ (done_flag i) (can_advance cfg i))
      (fun st ->
        State.set
          (State.set st (phvar i) (Value.int (phase st i + 1)))
          (donevar i) (Value.bool false))
  in
  Program.make ~name:"barrier-intolerant"
    ~vars:(vars cfg @ List.init cfg.processes (fun i -> (donevar i, Domain.boolean)))
    ~actions:(List.concat_map (fun i -> [ detect i; adv i ]) (procs cfg))

(* Invariant of the intolerant barrier: the window, plus consistency of
   the cached witnesses. *)
let intolerant_invariant cfg =
  let window = window cfg in
  let procs = procs cfg in
  let flags = List.map (fun i -> (done_flag i, is_minimum cfg i)) procs in
  Pred.make "window /\\ fresh flags" (fun st ->
      Pred.holds window st
      && Pred.holds no_losses st
      && List.for_all
           (fun (flag, minimum) ->
             (not (Pred.holds flag st)) || Pred.holds minimum st)
           flags)

(* The tolerant barrier: advance only as a minimum (the detector). *)
let tolerant cfg =
  Program.make ~name:"barrier" ~vars:(vars cfg)
    ~actions:
      (List.map
         (fun i ->
           advance
             ~based_on:(Fmt.str "adv%d" i)
             ~guard:(Pred.and_ (can_advance cfg i) (is_minimum cfg i))
             (Fmt.str "badv%d" i)
             i)
         (procs cfg))

(* Phase loss: one process restarts at phase 0 (at most [max_losses]
   restarts, to keep the run terminating). *)
let phase_loss ?(max_losses = 1) cfg =
  if max_losses > cfg.processes then
    invalid_arg "Barrier.phase_loss: at most one loss per process";
  let lost =
    Pred.make "losses<limit" (fun st -> losses st < max_losses)
  in
  let reset i =
    Action.deterministic
      (Fmt.str "F:restart-%d" i)
      lost
      (fun st ->
        State.set
          (State.set st (phvar i) (Value.int 0))
          "losses"
          (Value.int (losses st + 1)))
  in
  Fault.make "phase-loss" (List.map reset (procs cfg))

(* SPEC_barrier: a process never enters phase k+1 while a peer is below
   phase k (bad transition: an advance that overtakes a laggard), and
   eventually everyone completes. *)
let spec cfg =
  let procs = procs cfg in
  let overtaking st st' =
    List.exists
      (fun i ->
        phase st' i = phase st i + 1
        && List.exists (fun j -> phase st j < phase st i) procs)
      procs
  in
  Spec.make ~name:"SPEC_barrier"
    ~safety:(Safety.make ~name:"no barrier overtaking" ~bad_transition:overtaking ())
    ~liveness:(Liveness.eventually ~name:"all complete" (all_done cfg))
    ()

let invariant cfg =
  let window = window cfg in
  Pred.make "window /\\ no losses" (fun st ->
      Pred.holds window st && Pred.holds no_losses st)

(* The conceptual base program the tolerant barrier refines: advance
   whenever phases remain, with no safety guard at all.  The tolerant
   program's actions are [based_on] these, so Theorem 3.4's extraction
   can compute the detection predicates the detector theory promises. *)
let unguarded cfg =
  Program.make ~name:"barrier-unguarded" ~vars:(vars cfg)
    ~actions:
      (List.map
         (fun i -> advance ~guard:(can_advance cfg i) (Fmt.str "adv%d" i) i)
         (procs cfg))
