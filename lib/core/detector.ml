(* Detectors (Section 3).

   'Z detects X in d from U' iff d refines the 'Z detects X' specification
   from U.  A tolerant detector refines the corresponding tolerance
   specification of 'Z detects X' (Section 3.1). *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec

type t = {
  dname : string;
  witness : Pred.t; (* Z *)
  detection : Pred.t; (* X *)
}

let make ?name ~witness ~detection () =
  let dname =
    match name with
    | Some n -> n
    | None ->
      Fmt.str "%s detects %s" (Pred.name witness) (Pred.name detection)
  in
  { dname; witness; detection }

let name d = d.dname
let witness d = d.witness
let detection d = d.detection

let spec d = Spec.detects ~witness:d.witness ~detection:d.detection

(* The safety part (Safeness + Stability) and the liveness part
   (Progress) of the detects specification, as separate specifications —
   the tolerance-specific checks need them separately. *)
let safety_spec d = Spec.smallest_safety_containing (spec d)

let progress ts d =
  Check.leads_to ts d.detection (Pred.or_ d.witness (Pred.not_ d.detection))

(* [satisfies_ts ts d]: d (the program underlying ts) refines
   'Z detects X' from the states ts was built from. *)
let satisfies_ts ts d = Spec.refines ts (spec d)

let satisfies ?limit program d ~from =
  satisfies_ts (Ts.of_pred ?limit program ~from) d

(* ------------------------------------------------------------------ *)
(* Tolerant detectors (Section 3.1).                                   *)
(* ------------------------------------------------------------------ *)

(* d is a fail-safe (resp. nonmasking, masking) tolerant detector for
   'Z detects X' from U iff d refines the corresponding tolerance
   specification of 'Z detects X' from U.

   In the presence of a fault class F the check follows the structure of
   the paper's proofs (finitely many faults, Assumption 2):
   - the safety obligations (Safeness, Stability) are checked on the full
     [p [] F] system over the F-span of U;
   - the liveness obligation (Progress) is checked on p alone from the
     F-span, because after faults stop the computation is a computation of
     p (Theorem 5.5, Part 2);
   - nonmasking requires a suffix in the specification: p alone converges
     from the F-span to a recovery predicate [recover] (default U) from
     which the whole detects specification holds (Lemma 4.2's shape). *)

type tolerant_report = {
  tol : Spec.tolerance;
  span : Pred.t; (* the F-span used *)
  items : (string * Check.outcome) list;
}

let verdict r = List.for_all (fun (_, o) -> Check.holds o) r.items

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%a-tolerant detector check (span %s):@,%a@]"
    Spec.pp_tolerance r.tol (Pred.name r.span)
    Fmt.(
      list ~sep:cut (fun ppf (l, o) ->
          Fmt.pf ppf "  %-40s %a" l Check.pp_outcome o))
    r.items

let tolerant ?limit ?recover program d ~faults ~tol ~from =
  let ctx = Tolerance.context ?limit program ~faults ~invariant:from in
  let { Tolerance.pred = span; ts_pf; _ } = Tolerance.span_of ctx in
  let ts_p () = Tolerance.p_over_span ctx in
  let recover = match recover with Some r -> r | None -> from in
  let safety_items () =
    [ (Fmt.str "safety of '%s' on p[]F from span" d.dname,
       Spec.refines ts_pf (safety_spec d)) ]
  in
  let progress_item () =
    [ (Fmt.str "progress of '%s' on p from span" d.dname,
       progress (ts_p ()) d) ]
  in
  let nonmasking_items () =
    let ts_rec = Ts.of_pred ?limit program ~from:recover in
    [
      (Fmt.str "p converges from span to %s" (Pred.name recover),
       Check.eventually (ts_p ()) recover);
      (Fmt.str "'%s' holds from %s" d.dname (Pred.name recover),
       satisfies_ts ts_rec d);
    ]
  in
  let items =
    match tol with
    | Spec.Failsafe -> safety_items ()
    | Spec.Masking -> safety_items () @ progress_item ()
    | Spec.Nonmasking -> nonmasking_items ()
  in
  { tol; span; items }

let pp ppf d = Fmt.string ppf d.dname
