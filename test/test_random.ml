(* Randomized soundness properties over the whole pipeline.

   A generator of small random guarded-command programs (two booleans and
   one small integer), random fault classes and random invariants drives
   metamorphic properties that must hold for *every* system:

   - the fault span contains the invariant states and is closed in p[]F;
   - a masking verdict implies a fail-safe verdict (obligation subset);
   - synthesized fail-safe programs only ever strengthen guards, and
     their reports verify;
   - Theorem 3.4 never reports premises-hold with a failing conclusion
     (the soundness contract), across random base/refinement pairs built
     by guard strengthening;
   - the detector-conjunction lemma validates on random detector pairs;
   - [classify] over one shared tolerance context reports exactly what
     three fresh checks do, and [init_states] is the invariant's states
     of the product in [State.compare] order. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec
open Detcor_core

let vars = [ ("a", Domain.boolean); ("b", Domain.boolean); ("n", Domain.range 0 2) ]

(* Random predicates over the three variables, by index. *)
let pred_of_seed seed =
  let mask = seed land 0xfff in
  Pred.make (Fmt.str "P%d" mask) (fun st ->
      let a = Value.as_bool (State.get st "a") in
      let b = Value.as_bool (State.get st "b") in
      let n = Value.as_int (State.get st "n") in
      let bit k = (mask lsr k) land 1 = 1 in
      (* a small decision table over the 12-state space *)
      let ix = (if a then 1 else 0) + (if b then 2 else 0) + (4 * n) in
      bit (ix mod 12))

type rand_assign =
  | Set_a of bool
  | Set_b of bool
  | Set_n of int
  | Flip_a
  | Inc_n

let apply_assign st = function
  | Set_a v -> State.set st "a" (Value.bool v)
  | Set_b v -> State.set st "b" (Value.bool v)
  | Set_n v -> State.set st "n" (Value.int v)
  | Flip_a ->
    State.set st "a" (Value.bool (not (Value.as_bool (State.get st "a"))))
  | Inc_n ->
    State.set st "n"
      (Value.int (min 2 (Value.as_int (State.get st "n") + 1)))

let assign_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Set_a v) bool;
        map (fun v -> Set_b v) bool;
        map (fun v -> Set_n v) (int_range 0 2);
        return Flip_a;
        return Inc_n;
      ])

type rand_action = {
  guard_seed : int;
  assigns : rand_assign list;
}

let action_gen =
  QCheck.Gen.(
    map2
      (fun guard_seed assigns -> { guard_seed; assigns })
      (int_range 0 4095)
      (list_size (int_range 1 2) assign_gen))

type rand_program = {
  acts : rand_action list;
  invariant_seed : int;
  bad_seed : int;
  fault_var : int; (* which variable the fault corrupts *)
}

let program_gen =
  QCheck.Gen.(
    map
      (fun (acts, invariant_seed, bad_seed, fault_var) ->
        { acts; invariant_seed; bad_seed; fault_var })
      (quad
         (list_size (int_range 1 3) action_gen)
         (int_range 0 4095) (int_range 0 4095) (int_range 0 2)))

let rand_program_print rp =
  Fmt.str "{actions=%d inv=%d bad=%d fault=%d}" (List.length rp.acts)
    rp.invariant_seed rp.bad_seed rp.fault_var

let program_arb = QCheck.make ~print:rand_program_print program_gen

let build rp =
  let action i (ra : rand_action) =
    Action.deterministic
      (Fmt.str "a%d" i)
      (pred_of_seed ra.guard_seed)
      (fun st -> List.fold_left apply_assign st ra.assigns)
  in
  Program.make ~name:"random" ~vars ~actions:(List.mapi action rp.acts)

let fault_of rp =
  let x, d = List.nth vars rp.fault_var in
  Fault.corrupt_variable x d

let spec_of rp =
  Spec.make ~name:"random-spec"
    ~safety:(Safety.never (pred_of_seed rp.bad_seed))
    ()

(* Invariants must be nonempty to be meaningful; weaken empty draws to
   true. *)
let invariant_of rp p =
  let candidate = pred_of_seed rp.invariant_seed in
  if List.exists (Pred.holds candidate) (Program.states p) then candidate
  else Pred.true_

let prop_span_closed =
  Util.qtest ~count:100 "fault span contains S and is closed" program_arb
    (fun rp ->
      let p = build rp in
      let invariant = invariant_of rp p in
      let span = Tolerance.fault_span p ~faults:(fault_of rp) ~from:invariant in
      let s_states =
        List.filter (Pred.holds invariant) (Program.states p)
      in
      List.for_all (Pred.holds span.pred) s_states
      && Check.holds (Check.closed span.ts_pf span.pred))

let prop_masking_implies_failsafe =
  Util.qtest ~count:60 "masking verdict implies fail-safe verdict" program_arb
    (fun rp ->
      let p = build rp in
      let invariant = invariant_of rp p in
      let spec = spec_of rp in
      let faults = fault_of rp in
      let masking =
        Tolerance.verdict (Tolerance.is_masking p ~spec ~invariant ~faults)
      in
      let failsafe =
        Tolerance.verdict (Tolerance.is_failsafe p ~spec ~invariant ~faults)
      in
      (not masking) || failsafe)

let prop_synthesis_sound =
  Util.qtest ~count:60 "synthesized fail-safe programs verify and restrict"
    program_arb (fun rp ->
      let p = build rp in
      let invariant = invariant_of rp p in
      let spec = spec_of rp in
      match
        Detcor_synthesis.Synthesize.add_failsafe p ~spec ~invariant
          ~faults:(fault_of rp)
      with
      | Error _ -> true (* refusing is always sound *)
      | Ok r ->
        Detcor_core.Tolerance.verdict r.report
        && (* every synthesized action's guard implies the original's *)
        List.for_all
          (fun ac' ->
            match Program.find_action p (Action.name ac') with
            | None -> false
            | Some ac ->
              List.for_all
                (fun st ->
                  (not (Action.enabled ac' st)) || Action.enabled ac st)
                (Program.states p))
          (Program.actions r.program))

(* Random refinement pairs: the refined program restricts each action of
   the base by a random predicate (tagged based_on), which makes the
   encapsulation premise true by construction; Theorem 3.4's soundness
   contract must then never be violated. *)
let prop_theorem_3_4_contract =
  let pair_gen =
    QCheck.Gen.(pair program_gen (list_size (int_range 1 3) (int_range 0 4095)))
  in
  let pair_arb =
    QCheck.make
      ~print:(fun (rp, seeds) ->
        Fmt.str "%s restricted by %a" (rand_program_print rp)
          Fmt.(Dump.list int) seeds)
      pair_gen
  in
  Util.qtest ~count:60 "Theorem 3.4 soundness contract on random pairs"
    pair_arb (fun (rp, seeds) ->
      let base = build rp in
      let restricted =
        Program.make ~name:"restricted" ~vars
          ~actions:
            (List.mapi
               (fun i ac ->
                 let seed = List.nth seeds (i mod List.length seeds) in
                 Action.restrict (pred_of_seed seed) ac
                 |> Action.rename (Fmt.str "r%d" i)
                 |> fun a ->
                 (* re-tag with provenance *)
                 Action.make
                   ~based_on:(Action.name ac)
                   (Action.name a) (Action.guard a)
                   (fun st -> Action.execute ac st))
               (Program.actions base))
      in
      let invariant = invariant_of rp base in
      let sspec = Safety.never (pred_of_seed rp.bad_seed) in
      let schema =
        Theorems.theorem_3_4 ~base ~refined:restricted ~sspec ~invariant ()
      in
      Theorems.validates schema)

(* Detector conjunction is an unconditional lemma: validates() must hold
   for arbitrary detector pairs on arbitrary systems. *)
let prop_conjunction_contract =
  let gen = QCheck.Gen.(triple program_gen (int_range 0 4095) (int_range 0 4095)) in
  let arb =
    QCheck.make
      ~print:(fun (rp, z1, z2) ->
        Fmt.str "%s Z1=%d Z2=%d" (rand_program_print rp) z1 z2)
      gen
  in
  Util.qtest ~count:80 "detector conjunction contract on random systems" arb
    (fun (rp, s1, s2) ->
      let p = build rp in
      let ts = Ts.full p in
      let d1 =
        Detector.make ~name:"d1" ~witness:(pred_of_seed s1)
          ~detection:(pred_of_seed (s1 lxor 17)) ()
      in
      let d2 =
        Detector.make ~name:"d2" ~witness:(pred_of_seed s2)
          ~detection:(pred_of_seed (s2 lxor 33)) ()
      in
      Compose.validates (Compose.conjunction_schema ts d1 d2))

(* One shared context must answer exactly what three fresh ones do: the
   reports of [classify] print the same as three independent [check]s,
   the recovery predicate included. *)
let prop_classify_shares_context =
  Util.qtest ~count:100 "classify over one context = three fresh checks"
    QCheck.(pair program_arb (int_range 0 2))
    (fun (rp, recover_kind) ->
      let p = build rp in
      let invariant = invariant_of rp p in
      let spec = spec_of rp in
      let faults = fault_of rp in
      (* The default; a strict superset of S, whose recovery system must
         not be mistaken for the base system; an unrelated predicate. *)
      let recover =
        match recover_kind with
        | 0 -> None
        | 1 -> Some (Pred.or_ invariant (pred_of_seed rp.bad_seed))
        | _ -> Some (pred_of_seed (rp.invariant_seed lxor 5))
      in
      let shared =
        Tolerance.classify ?recover p ~spec ~invariant ~faults
      in
      (* The recovery obligation, rebuilt from its definition: p from the
         span states satisfying R. *)
      let r = Option.value recover ~default:invariant in
      let span = Tolerance.fault_span p ~faults ~from:invariant in
      let _, recovered =
        Tolerance.refines_from_states p ~spec ~invariant:r
          ~init:(List.filter (Pred.holds r) span.states)
      in
      let pp_outcome = Fmt.str "%a" Check.pp_outcome in
      List.for_all
        (fun (tol, (report : Tolerance.report)) ->
          let fresh =
            Tolerance.check ?recover p ~spec ~invariant ~faults ~tol
          in
          String.equal
            (Fmt.str "%a" Tolerance.pp_report report)
            (Fmt.str "%a" Tolerance.pp_report fresh)
          &&
          match (tol, report.items) with
          | Spec.Nonmasking, [ _; _; last ] ->
            String.equal (pp_outcome last.outcome) (pp_outcome recovered)
          | _ -> true)
        shared)

let prop_init_states_filter =
  Util.qtest ~count:100 "init_states = invariant states of the product"
    program_arb (fun rp ->
      let p = build rp in
      let invariant = pred_of_seed rp.invariant_seed in
      List.equal State.equal
        (Tolerance.init_states p ~invariant)
        (List.filter (Pred.holds invariant) (Program.states p)))

let suite =
  ( "randomized soundness",
    [
      prop_classify_shares_context;
      prop_init_states_filter;
      prop_span_closed;
      prop_masking_implies_failsafe;
      prop_synthesis_sound;
      prop_theorem_3_4_contract;
      prop_conjunction_contract;
    ] )
