(* Correctors (Section 4).

   'Z corrects X in c from U' iff c refines the 'Z corrects X'
   specification from U: the detector conditions (Safeness, Progress,
   Stability) plus Convergence — X is eventually reached and preserved. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec

type t = {
  cname : string;
  witness : Pred.t; (* Z *)
  correction : Pred.t; (* X *)
}

let make ?name ~witness ~correction () =
  let cname =
    match name with
    | Some n -> n
    | None ->
      Fmt.str "%s corrects %s" (Pred.name witness) (Pred.name correction)
  in
  { cname; witness; correction }

let name c = c.cname
let witness c = c.witness
let correction c = c.correction

(* A corrector whose witness equals its correction predicate — the
   Arora–Gouda closure-and-convergence special case noted in Section 4.1. *)
let of_invariant x = make ~witness:x ~correction:x ()

let spec c = Spec.corrects ~witness:c.witness ~detection:c.correction

let as_detector c =
  Detector.make ~name:(Fmt.str "detector of %s" c.cname) ~witness:c.witness
    ~detection:c.correction ()

let safety_spec c = Spec.smallest_safety_containing (spec c)

let convergence ts c =
  Check.all
    [ Check.closed ts c.correction; Check.eventually ts c.correction ]

let satisfies_ts ts c = Spec.refines ts (spec c)

let satisfies ?limit program c ~from =
  satisfies_ts (Ts.of_pred ?limit program ~from) c

(* ------------------------------------------------------------------ *)
(* Tolerant correctors (Section 4.1).                                  *)
(* ------------------------------------------------------------------ *)

(* Same proof structure as tolerant detectors; see Detector.tolerant.  For
   nonmasking — the paper's main use (Theorem 4.3) — the obligations follow
   Lemma 4.2: the program converges from the F-span to [recover], and from
   [recover] it refines 'Z corrects X'. *)

type tolerant_report = {
  tol : Spec.tolerance;
  span : Pred.t;
  items : (string * Check.outcome) list;
}

let verdict r = List.for_all (fun (_, o) -> Check.holds o) r.items

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%a-tolerant corrector check (span %s):@,%a@]"
    Spec.pp_tolerance r.tol (Pred.name r.span)
    Fmt.(
      list ~sep:cut (fun ppf (l, o) ->
          Fmt.pf ppf "  %-40s %a" l Check.pp_outcome o))
    r.items

let tolerant ?limit ?recover program c ~faults ~tol ~from =
  let ctx = Tolerance.context ?limit program ~faults ~invariant:from in
  let { Tolerance.pred = span; ts_pf; _ } = Tolerance.span_of ctx in
  let ts_p () = Tolerance.p_over_span ctx in
  let recover = match recover with Some r -> r | None -> from in
  let safety_items () =
    [ (Fmt.str "safety of '%s' on p[]F from span" c.cname,
       Spec.refines ts_pf (safety_spec c)) ]
  in
  let liveness_items () =
    [
      (Fmt.str "progress of '%s' on p from span" c.cname,
       Detector.progress (ts_p ()) (as_detector c));
      (Fmt.str "convergence of '%s' on p from span" c.cname,
       Check.eventually (ts_p ()) c.correction);
    ]
  in
  let nonmasking_items () =
    let ts_rec = Ts.of_pred ?limit program ~from:recover in
    [
      (Fmt.str "p converges from span to %s" (Pred.name recover),
       Check.eventually (ts_p ()) recover);
      (Fmt.str "'%s' holds from %s" c.cname (Pred.name recover),
       satisfies_ts ts_rec c);
    ]
  in
  let items =
    match tol with
    | Spec.Failsafe -> safety_items ()
    | Spec.Masking -> safety_items () @ liveness_items ()
    | Spec.Nonmasking -> nonmasking_items ()
  in
  { tol; span; items }

let pp ppf c = Fmt.string ppf c.cname
