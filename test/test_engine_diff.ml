(* Differential tests: the packed engine against the seed list-based
   oracle ([Detcor_oracle.Reference_ts], under test/oracle).

   A generator of random guarded-command programs (five variables with
   mixed boolean / integer / symbolic domains, random guards from seeded
   decision tables, deterministic and nondeterministic statements, and an
   optional action that escapes its declared domain) drives three
   properties:

   - the engine and the oracle produce identical state arrays, edge
     relations and initial states, whether built from explicit states or
     from a predicate over the product space — or, when the oracle's
     exploration leaves the declared domains, the engine raises exactly
     the located error the oracle predicts;
   - [Check] and [Graph] procedures report identical outcomes on both;
   - [index_of] on the packed system inverts the numbering.

   Together the properties run > 200 random programs per test execution. *)

open Detcor_kernel
open Detcor_semantics

let bool_dom = Domain.boolean
let n_dom = Domain.range 0 2
let m_dom = Domain.range 0 3
let s_dom = Domain.symbols [ "p"; "q"; "bot" ]

let vars =
  [ ("a", bool_dom); ("b", bool_dom); ("n", n_dom); ("m", m_dom); ("s", s_dom) ]

(* Random predicates: a seeded decision table over the packed value tuple.
   Total on any state binding the five variables, including states outside
   the declared domains (the escape action drives [n] up to 5). *)
let pred_of_seed seed =
  Pred.make (Fmt.str "P%d" seed) (fun st ->
      let a = Value.as_bool (State.get st "a") in
      let b = Value.as_bool (State.get st "b") in
      let n = Value.as_int (State.get st "n") in
      let m = Value.as_int (State.get st "m") in
      let s = Value.as_sym (State.get st "s") in
      let ix =
        (if a then 1 else 0)
        + (2 * if b then 1 else 0)
        + (4 * n)
        + (12 * m)
        + (48 * match s with "p" -> 0 | "q" -> 1 | _ -> 2)
      in
      (seed lsr (ix mod 61)) land 1 = 1)

type rand_assign =
  | Set_a of bool
  | Set_b of bool
  | Set_n of int
  | Set_m of int
  | Set_s of string
  | Flip_a
  | Inc_n_clamped
  | Inc_m_mod

let apply_assign st = function
  | Set_a v -> State.set st "a" (Value.bool v)
  | Set_b v -> State.set st "b" (Value.bool v)
  | Set_n v -> State.set st "n" (Value.int v)
  | Set_m v -> State.set st "m" (Value.int v)
  | Set_s v -> State.set st "s" (Value.sym v)
  | Flip_a ->
    State.set st "a" (Value.bool (not (Value.as_bool (State.get st "a"))))
  | Inc_n_clamped ->
    State.set st "n" (Value.int (min 2 (Value.as_int (State.get st "n") + 1)))
  | Inc_m_mod ->
    State.set st "m" (Value.int ((Value.as_int (State.get st "m") + 1) mod 4))

let assign_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Set_a v) bool;
        map (fun v -> Set_b v) bool;
        map (fun v -> Set_n v) (int_range 0 2);
        map (fun v -> Set_m v) (int_range 0 3);
        map (fun v -> Set_s v) (oneofl [ "p"; "q"; "bot" ]);
        return Flip_a;
        return Inc_n_clamped;
        return Inc_m_mod;
      ])

type rand_action =
  | Assign of int * rand_assign list (* guard seed, updates *)
  | Choose of int * rand_assign * rand_assign (* nondeterministic branch *)
  | Corrupt of int * int (* guard seed, variable index *)

let action_gen =
  QCheck.Gen.(
    let seed = int_range 0 (1 lsl 20) in
    oneof
      [
        map2
          (fun s assigns -> Assign (s, assigns))
          seed
          (list_size (int_range 1 2) assign_gen);
        map3 (fun s x y -> Choose (s, x, y)) seed assign_gen assign_gen;
        map2 (fun s v -> Corrupt (s, v)) seed (int_range 0 4);
      ])

type rand_program = {
  acts : rand_action list;
  escape : bool; (* include an action stepping n outside its domain *)
}

let program_gen =
  QCheck.Gen.(
    map2
      (fun acts escape -> { acts; escape })
      (list_size (int_range 1 4) action_gen)
      (map (fun k -> k = 0) (int_range 0 6)))

let print_program rp =
  Fmt.str "{actions=%d escape=%b}" (List.length rp.acts) rp.escape

let build_action i = function
  | Assign (seed, assigns) ->
    Action.deterministic (Fmt.str "a%d" i) (pred_of_seed seed) (fun st ->
        List.fold_left apply_assign st assigns)
  | Choose (seed, x, y) ->
    Action.choose (Fmt.str "a%d" i) (pred_of_seed seed)
      [ (fun st -> apply_assign st x); (fun st -> apply_assign st y) ]
  | Corrupt (seed, v) ->
    let x, d = List.nth vars v in
    Action.corrupt (Fmt.str "a%d" i) (pred_of_seed seed) x d

(* The escape action drives [n] beyond its declared domain (bounded at 5 so
   the oracle's exploration terminates): the engine must stop at the first
   escaping step with the located error. *)
let escape_action =
  Action.deterministic "escape"
    (Pred.make "n<5" (fun st -> Value.as_int (State.get st "n") < 5))
    (fun st -> State.set st "n" (Value.int (Value.as_int (State.get st "n") + 1)))

let build_program rp =
  let actions = List.mapi build_action rp.acts in
  let actions = if rp.escape then actions @ [ escape_action ] else actions in
  Program.make ~name:"diff" ~vars ~actions

let state_gen =
  QCheck.Gen.(
    map2
      (fun (a, b) (n, m, s) ->
        State.of_list
          [
            ("a", Value.bool a);
            ("b", Value.bool b);
            ("n", Value.int n);
            ("m", Value.int m);
            ("s", Value.sym s);
          ])
      (pair bool bool)
      (triple (int_range 0 2) (int_range 0 3) (oneofl [ "p"; "q"; "bot" ])))

let with_inits_gen =
  QCheck.Gen.(pair program_gen (list_size (int_range 1 5) state_gen))

let with_inits_arb =
  QCheck.make
    ~print:(fun (rp, inits) ->
      Fmt.str "%s from %d states" (print_program rp) (List.length inits))
    with_inits_gen

(* Structural equality of two built systems, including numbering. *)
let equal_system = Util.ts_equal

module Oracle = Detcor_oracle.Reference_ts

(* [against_oracle reference build k]: run the production [build]; when
   the oracle's exploration [reference] stays inside the declared domains
   the build must succeed and satisfy [k], otherwise it must raise the
   located error the oracle predicts. *)
let against_oracle reference build k =
  let expected = Oracle.escape reference in
  match build () with
  | ts -> (
    match expected with
    | None -> k ts
    | Some msg -> QCheck.Test.fail_reportf "explored past the escape: %s" msg)
  | exception
      Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Type_error { msg })
    ->
    expected = Some msg
    || QCheck.Test.fail_reportf "located error %S, oracle predicts %a" msg
         Fmt.(option ~none:(any "none") string)
         expected

let outcome_str o = Fmt.str "%a" Check.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_build_identical =
  Util.qtest ~count:200 "packed build = reference build (explicit initials)"
    with_inits_arb (fun (rp, inits) ->
      let p = build_program rp in
      (* Duplicate initials exercise the sort-uniq path of both engines. *)
      let from = inits @ inits in
      let reference = Oracle.build p ~from in
      against_oracle reference
        (fun () -> Ts.build p ~from)
        (fun packed ->
          equal_system reference packed
          && List.for_all
               (fun i -> Ts.index_of packed (Ts.state reference i) = Some i)
               (List.init (Ts.num_states reference) Fun.id)))

let prop_of_pred_identical =
  let arb =
    QCheck.make
      ~print:(fun (rp, s) -> Fmt.str "%s from P%d" (print_program rp) s)
      QCheck.Gen.(pair program_gen (int_range 0 (1 lsl 20)))
  in
  Util.qtest ~count:120 "packed of_pred = reference of_pred" arb
    (fun (rp, seed) ->
      let p = build_program rp in
      let from = pred_of_seed seed in
      let reference = Oracle.of_pred p ~from in
      against_oracle reference
        (fun () -> Ts.of_pred p ~from)
        (equal_system reference))

let prop_checks_identical =
  let arb =
    QCheck.make
      ~print:(fun ((rp, s1), s2) ->
        Fmt.str "%s P%d P%d" (print_program rp) s1 s2)
      QCheck.Gen.(
        pair
          (pair program_gen (int_range 0 (1 lsl 20)))
          (int_range 0 (1 lsl 20)))
  in
  Util.qtest ~count:120 "Check/Graph outcomes agree across engines" arb
    (fun ((rp, s1), s2) ->
      let p = build_program rp in
      let from = pred_of_seed s1 in
      let reference = Oracle.of_pred p ~from in
      against_oracle reference (fun () -> Ts.of_pred p ~from) @@ fun packed ->
      let p1 = pred_of_seed s2 and p2 = pred_of_seed (s2 lxor 0x2a) in
      let same_outcome f = outcome_str (f reference) = outcome_str (f packed) in
      same_outcome (fun ts -> Check.closed ts p1)
      && same_outcome (fun ts -> Check.leads_to ts p1 p2)
      && same_outcome (fun ts -> Check.implies ts p1 p2)
      && same_outcome (fun ts -> Check.deadlock_free ts ~inside:p1)
      && same_outcome (fun ts -> Check.hoare_triple ts ~pre:p1 ~post:p2)
      && (let sccs ts = List.map (fun (c : Graph.scc) -> c.members) (Graph.sccs ts) in
          sccs reference = sccs packed)
      &&
      let reach ts = Graph.reachable ts ~from:(Ts.initials ts) in
      reach reference = reach packed)

let suite =
  ( "engine differential",
    [ prop_build_identical; prop_of_pred_identical; prop_checks_identical ] )
