(** F-tolerance of a program to a specification (Section 2.4).

    [p] is masking (fail-safe, nonmasking) F-tolerant to SPEC from S iff
    [p] refines SPEC from S and [p [] F] refines the corresponding
    tolerance specification of SPEC from some [T ⊇ S].  The checkers use
    the F-span of S (forward closure under [p [] F]) as T — the smallest,
    hence complete, candidate — and split safety/liveness obligations the
    way the paper's proofs use Assumption 2 (finitely many faults). *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec

type item = {
  label : string;
  outcome : Check.outcome;
}

type report = {
  subject : string;
  tol : Spec.tolerance;
  span_size : int;
  invariant_size : int;
  items : item list;
}

(** [verdict r] is true iff every obligation holds; an [Unknown]
    obligation (resource budget exhausted mid-check) makes the verdict
    false but is reported distinctly — see {!unknowns}. *)
val verdict : report -> bool

(** The obligations that definitely fail (excludes [Unknown] ones). *)
val failures : report -> item list

(** The obligations left undecided by resource exhaustion. *)
val unknowns : report -> item list

(** The first exhausted-resource payload in the report, if any. *)
val first_unknown : report -> Detcor_robust.Error.resource option

val pp_report : report Fmt.t

type span = {
  pred : Pred.t;
  states : State.t list;
  ts_pf : Ts.t;  (** the explored [p [] F] system over the span *)
}

(** The F-span of [p] from [from] (Section 2.3): forward closure of the
    [from]-states under [p [] F]. *)
val fault_span :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?workers:int ->
  Program.t ->
  faults:Fault.t ->
  from:Pred.t ->
  span

(** As {!fault_span} with the initial states given explicitly (skips
    product-space enumeration). *)
val fault_span_from_states :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?workers:int ->
  Program.t ->
  faults:Fault.t ->
  init:State.t list ->
  span

(** [refines_from p ~spec ~invariant]: S closed in p and every computation
    from S in SPEC; also returns the explored system. *)
val refines_from :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?workers:int ->
  Program.t ->
  spec:Spec.t ->
  invariant:Pred.t ->
  Ts.t * Check.outcome

val refines_from_states :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?workers:int ->
  Program.t ->
  spec:Spec.t ->
  init:State.t list ->
  invariant:Pred.t ->
  Ts.t * Check.outcome

(** The product-space states satisfying the invariant, streamed through
    the program's {!Layout} in [State.compare] order.
    @raise Ts.Too_large if more than [limit] states satisfy the invariant
    (the product sweep itself is not bounded). *)
val init_states : ?limit:int -> Program.t -> invariant:Pred.t -> State.t list

(** [leads_to_under_faults ~ts_pf ~ts_p o]: does the leads-to obligation
    hold on every computation of [p [] F] under the finitely-many-faults
    semantics?  [ts_pf] is the composed system over the span, [ts_p] the
    program-only system over the same states. *)
val leads_to_under_faults :
  ts_pf:Ts.t -> ts_p:Ts.t -> Liveness.obligation -> Check.outcome

val liveness_under_faults :
  ts_pf:Ts.t -> ts_p:Ts.t -> Liveness.t -> Check.outcome

(** Full tolerance check for a given class.  [recover] (nonmasking only,
    default: the invariant) is the predicate computations converge to and
    refine SPEC from — the R of Theorem 4.3. *)
val check :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?workers:int ->
  ?recover:Pred.t ->
  Program.t ->
  spec:Spec.t ->
  invariant:Pred.t ->
  faults:Fault.t ->
  tol:Spec.tolerance ->
  report

(** As {!check}, with explicit initial states. *)
val check_with :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?workers:int ->
  ?recover:Pred.t ->
  Program.t ->
  spec:Spec.t ->
  invariant:Pred.t ->
  init:State.t list ->
  faults:Fault.t ->
  tol:Spec.tolerance ->
  report

val is_failsafe :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?workers:int ->
  Program.t -> spec:Spec.t -> invariant:Pred.t -> faults:Fault.t -> report

val is_nonmasking :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?workers:int ->
  ?recover:Pred.t ->
  Program.t -> spec:Spec.t -> invariant:Pred.t -> faults:Fault.t -> report

val is_masking :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?workers:int ->
  Program.t -> spec:Spec.t -> invariant:Pred.t -> faults:Fault.t -> report

(** Reports for all three classes, masking first. *)
val classify :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?workers:int ->
  ?recover:Pred.t ->
  Program.t ->
  spec:Spec.t ->
  invariant:Pred.t ->
  faults:Fault.t ->
  (Spec.tolerance * report) list
