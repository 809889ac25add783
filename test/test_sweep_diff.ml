(* Differential tests: the pruned backtracking [Layout.sweep] against the
   full product walk it replaced ([Detcor_oracle.Reference_sweep], under
   test/oracle).

   Random layouts (one to five variables over boolean, integer-range and
   symbolic domains) are swept with random tests of every shape the
   soundness argument in layout.mli covers:

   - [Pred.of_expr] over random boolean expressions, some of which raise
     [Value.Type_error] on part of the space (modulo by a zero-valued
     variable, arithmetic on a boolean);
   - [Pred.of_states] over random subsets of the product (hash + equal);
   - [not_] / [and_] / [implies] combinations of these;
   - closures observing whole states through [State.fold],
     [State.bindings], [State.compare], [State.equal], [State.hash],
     [Layout.pack] and [Layout.pack_from];
   - closures raising [Value.Type_error] from a plain [State.get] read.

   For each, both sweeps must hand [f] the same (rank, state) sequence
   and end the same way: normally, or on the same first exception. *)

open Detcor_kernel
open Detcor_semantics

type kind = Bool | Ints of int (* 0..hi *) | Syms of string list

let domain_of = function
  | Bool -> Domain.boolean
  | Ints hi -> Domain.range 0 hi
  | Syms ss -> Domain.symbols ss

let pp_kind ppf = function
  | Bool -> Fmt.string ppf "bool"
  | Ints hi -> Fmt.pf ppf "0..%d" hi
  | Syms ss -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma string) ss

(* The tests, as data so counterexamples print. *)
type test =
  | Expr of Expr.t
  | States of int list (* ranks, taken modulo the space *)
  | Not of test
  | And of test * test
  | Implies of test * test
  | Fold_mod of int (* sum of value hashes via [State.fold] *)
  | Bindings_has of int (* some binding equals [Int k] *)
  | Compare_below of int (* [State.compare] against a pivot rank *)
  | Equal_to of int (* [State.equal] to a pivot rank *)
  | Hash_mod of int
  | Pack_mod of int
  | Pack_from_mod of int * int (* delta rank against a source rank *)
  | Raise_when of string * int (* Type_error when the variable is [Int k] *)

let rec pp_test ppf = function
  | Expr e -> Fmt.pf ppf "expr(%a)" Expr.pp e
  | States rs -> Fmt.pf ppf "states%a" Fmt.(Dump.list int) rs
  | Not t -> Fmt.pf ppf "!%a" pp_test t
  | And (a, b) -> Fmt.pf ppf "(%a && %a)" pp_test a pp_test b
  | Implies (a, b) -> Fmt.pf ppf "(%a => %a)" pp_test a pp_test b
  | Fold_mod m -> Fmt.pf ppf "fold-mod-%d" m
  | Bindings_has k -> Fmt.pf ppf "bindings-has-%d" k
  | Compare_below r -> Fmt.pf ppf "compare-below-%d" r
  | Equal_to r -> Fmt.pf ppf "equal-to-%d" r
  | Hash_mod m -> Fmt.pf ppf "hash-mod-%d" m
  | Pack_mod m -> Fmt.pf ppf "pack-mod-%d" m
  | Pack_from_mod (r, m) -> Fmt.pf ppf "pack-from-%d-mod-%d" r m
  | Raise_when (x, k) -> Fmt.pf ppf "raise-when-%s=%d" x k

let rec pred_of layout = function
  | Expr e -> Pred.of_expr e
  | States ranks ->
    let space = Layout.space layout in
    Pred.of_states
      (List.map (fun r -> Layout.unpack layout (r mod space)) ranks)
  | Not t -> Pred.not_ (pred_of layout t)
  | And (a, b) -> Pred.and_ (pred_of layout a) (pred_of layout b)
  | Implies (a, b) -> Pred.implies (pred_of layout a) (pred_of layout b)
  | Fold_mod m ->
    Pred.make "fold" (fun st ->
        State.fold (fun _ v acc -> acc + Value.hash v) st 0 mod m = 0)
  | Bindings_has k ->
    Pred.make "bindings" (fun st ->
        List.exists
          (fun (_, v) -> Value.equal v (Value.int k))
          (State.bindings st))
  | Compare_below r ->
    let pivot = Layout.unpack layout (r mod Layout.space layout) in
    Pred.make "compare" (fun st -> State.compare st pivot < 0)
  | Equal_to r ->
    let pivot = Layout.unpack layout (r mod Layout.space layout) in
    Pred.make "equal" (fun st -> State.equal st pivot)
  | Hash_mod m -> Pred.make "hash" (fun st -> State.hash st mod m = 0)
  | Pack_mod m -> Pred.make "pack" (fun st -> Layout.pack layout st mod m = 0)
  | Pack_from_mod (r, m) ->
    let src_rank = r mod Layout.space layout in
    let src = Layout.unpack layout src_rank in
    Pred.make "pack_from" (fun st ->
        Layout.pack_from layout ~src_rank src st mod m = 0)
  | Raise_when (x, k) ->
    Pred.make "raise" (fun st ->
        match State.get st x with
        | Value.Int i when i = k -> Value.type_error "boom at %s=%d" x i
        | _ -> true)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let names = [ "a"; "b"; "c"; "d"; "e" ]

let kind_gen =
  QCheck.Gen.(
    oneof
      [
        return Bool;
        map (fun hi -> Ints hi) (int_range 0 3);
        map
          (fun k -> Syms (List.filteri (fun i _ -> i <= k) [ "p"; "q"; "bot" ]))
          (int_range 0 2);
      ])

(* One to five distinct variables, in a random order: [Layout] sorts them. *)
let decl_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    shuffle_l names >>= fun shuffled ->
    let chosen = List.filteri (fun i _ -> i < n) shuffled in
    flatten_l (List.map (fun x -> map (fun k -> (x, k)) kind_gen) chosen))

(* Boolean expressions over the declared variables.  Atoms that raise
   [Type_error] on part of the space (modulo by an integer variable that
   can be 0, addition on a boolean) appear with low frequency. *)
let expr_gen decl =
  let open QCheck.Gen in
  let ints = List.filter_map (function x, Ints _ -> Some x | _ -> None) decl in
  let bools = List.filter_map (function x, Bool -> Some x | _ -> None) decl in
  let atom_of (x, k) =
    match k with
    | Bool -> return (Expr.var x)
    | Ints hi ->
      oneof
        [
          map (fun c -> Expr.eq (Expr.var x) (Expr.int c)) (int_range 0 hi);
          map
            (fun c -> Expr.lt (Expr.var x) (Expr.int c))
            (int_range 0 (hi + 1));
        ]
    | Syms ss -> map (fun s -> Expr.eq (Expr.var x) (Expr.sym s)) (oneofl ss)
  in
  let raising =
    (match ints with
    | [] -> []
    | _ ->
      [
        map2
          (fun x y ->
            Expr.eq (Expr.mod_ (Expr.var x) (Expr.var y)) (Expr.int 0))
          (oneofl ints) (oneofl ints);
      ])
    @
    match bools with
    | [] -> []
    | _ ->
      [ map (fun b -> Expr.gt (Expr.add (Expr.var b) (Expr.int 1)) (Expr.int 0))
          (oneofl bools) ]
  in
  let atom =
    frequency
      ((8, oneof (List.map atom_of decl))
      :: (1, map Expr.bool bool)
      :: List.map (fun g -> (1, g)) raising)
  in
  fix
    (fun self depth ->
      if depth = 0 then atom
      else
        let sub = self (depth - 1) in
        frequency
          [
            (3, atom);
            (1, map Expr.not_ sub);
            (2, map Expr.and_ (list_size (int_range 1 3) sub));
            (2, map Expr.or_ (list_size (int_range 1 3) sub));
            (1, map2 Expr.implies sub sub);
            (1, map3 Expr.ite sub sub sub);
          ])
    3

let test_gen decl =
  let open QCheck.Gen in
  let int_vars =
    List.filter_map (function x, Ints hi -> Some (x, hi) | _ -> None) decl
  in
  let leaf =
    frequency
      ([
         (6, map (fun e -> Expr e) (expr_gen decl));
         ( 2,
           map
             (fun rs -> States rs)
             (list_size (int_range 0 12) (int_range 0 10_000)) );
         (1, map (fun m -> Fold_mod m) (int_range 2 5));
         (1, map (fun k -> Bindings_has k) (int_range 0 3));
         (1, map (fun r -> Compare_below r) (int_range 0 10_000));
         (1, map (fun r -> Equal_to r) (int_range 0 10_000));
         (1, map (fun m -> Hash_mod m) (int_range 2 5));
         (1, map (fun m -> Pack_mod m) (int_range 2 5));
         ( 1,
           map2
             (fun r m -> Pack_from_mod (r, m))
             (int_range 0 10_000) (int_range 2 5) );
       ]
      @
      match int_vars with
      | [] -> []
      | _ ->
        [
          ( 1,
            oneofl int_vars >>= fun (x, hi) ->
            map (fun k -> Raise_when (x, k)) (int_range 0 hi) );
        ])
  in
  frequency
    [
      (4, leaf);
      (1, map (fun t -> Not t) leaf);
      (1, map2 (fun a b -> And (a, b)) leaf leaf);
      (1, map2 (fun a b -> Implies (a, b)) leaf leaf);
    ]

let case_gen =
  QCheck.Gen.(decl_gen >>= fun decl -> pair (return decl) (test_gen decl))

let print_case (decl, t) =
  Fmt.str "vars [%a] test %a"
    Fmt.(list ~sep:semi (pair ~sep:(any ":") string pp_kind))
    decl pp_test t

(* ------------------------------------------------------------------ *)
(* The property                                                        *)
(* ------------------------------------------------------------------ *)

(* Everything [f] received, then how the sweep ended. *)
let run sweep layout test =
  let seen = ref [] in
  let ending =
    match
      sweep layout (Pred.holds test) (fun rank sc ->
          seen := (rank, State.to_string (State.scratch_copy sc)) :: !seen)
    with
    | () -> "completed"
    | exception e -> "raised " ^ Printexc.to_string e
  in
  (List.rev !seen, ending)

let prop_pruned_equals_full =
  Util.qtest ~count:400 "pruned sweep = full sweep"
    (QCheck.make ~print:print_case case_gen)
    (fun (decl, t) ->
      let p =
        Program.make ~name:"sweep"
          ~vars:(List.map (fun (x, k) -> (x, domain_of k)) decl)
          ~actions:[]
      in
      let layout = Layout.compile p in
      let test = pred_of layout t in
      let full = run Detcor_oracle.Reference_sweep.sweep layout test in
      let pruned = run Layout.sweep layout test in
      full = pruned
      || QCheck.Test.fail_reportf "full: %d visits, %s@.pruned: %d visits, %s"
           (List.length (fst full)) (snd full)
           (List.length (fst pruned)) (snd pruned))

let suite = ("sweep differential", [ prop_pruned_equals_full ])
