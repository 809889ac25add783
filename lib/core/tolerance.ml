(* F-tolerance of a program to a specification (Section 2.4).

   p is masking (resp. fail-safe, nonmasking) F-tolerant to SPEC from S iff
   (i) p refines SPEC from S, and (ii) there is a T ⊇ S such that p [] F
   refines the masking (resp. fail-safe, nonmasking) tolerance
   specification of SPEC from T.

   The checkers compute T as the F-span of S — the forward closure of S
   under p [] F, which is the smallest candidate and therefore complete:
   if any T works, the span works, because every set satisfying the
   closure conditions contains it.

   The proof obligations in the presence of faults follow the paper's own
   use of Assumption 2 (finitely many faults):
   - safety obligations are decided on the full p [] F graph (any safety
     violation occurs on a finite prefix, which some finite-fault
     computation realizes);
   - liveness obligations are decided on p alone from the span (after the
     finitely many faults stop, the remaining computation is a computation
     of p);
   - masking combines both via Theorem 5.2: safety of SSPEC over the span,
     convergence of p from the span to S, and refinement of SPEC from S
     imply refinement of SPEC from the span. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec
open Detcor_obs

type item = {
  label : string;
  outcome : Check.outcome;
}

(* Wall time of each proof obligation, recorded when observability is on.
   [timed] evaluates [f] exactly once either way, so verdicts (and their
   order of computation) are identical with observability on or off. *)
let h_verdict = Metrics.histogram "check.verdict_ns"
let m_unknown = Metrics.counter "check.unknown_verdicts"

let count_unknown outcome =
  match outcome with
  | Check.Unknown _ when Obs.on () -> Metrics.incr m_unknown
  | _ -> ()

let timed label f =
  if not (Obs.on ()) then begin
    let outcome = f () in
    count_unknown outcome;
    { label; outcome }
  end
  else begin
    let t0 = Obs.now_ns () in
    let outcome = f () in
    let dt = Int64.to_int (Int64.sub (Obs.now_ns ()) t0) in
    Metrics.observe h_verdict dt;
    count_unknown outcome;
    Obs.event "tolerance.verdict"
      ~attrs:
        [
          Attr.str "item" label;
          Attr.bool "holds" (Check.holds outcome);
          Attr.int "ns" dt;
        ];
    { label; outcome }
  end

(* A resource-exhaustion exception, as the taxonomy's [resource] payload.
   [Ts.Too_large] is the legacy state-ceiling cliff; it is subsumed here
   so an exceeded exploration limit yields an [Unknown] verdict exactly
   like an exceeded budget dimension. *)
let resource_of_exn = function
  | Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Resource r) ->
    Some r
  | Ts.Too_large n ->
    Some { Detcor_robust.Error.kind = Detcor_robust.Error.States;
           spent = n; budget = n }
  | _ -> None

type report = {
  subject : string;
  tol : Spec.tolerance;
  span_size : int;
  invariant_size : int;
  items : item list;
}

let verdict r = List.for_all (fun i -> Check.holds i.outcome) r.items

let failures r =
  List.filter
    (fun i -> match i.outcome with Check.Fails _ -> true | _ -> false)
    r.items

let unknowns r =
  List.filter
    (fun i -> match i.outcome with Check.Unknown _ -> true | _ -> false)
    r.items

let first_unknown r =
  List.find_map
    (fun i ->
      match i.outcome with Check.Unknown res -> Some res | _ -> None)
    r.items

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>%s: %a tolerance (invariant %d states, span %d states)@,%a@,=> %s@]"
    r.subject Spec.pp_tolerance r.tol r.invariant_size r.span_size
    Fmt.(
      list ~sep:cut (fun ppf i ->
          Fmt.pf ppf "  %-52s %a" i.label Check.pp_outcome i.outcome))
    r.items
    (if failures r <> [] then "VERDICT: FAILS"
     else
       match first_unknown r with
       | Some res ->
         Fmt.str "VERDICT: UNKNOWN (%s budget exhausted)"
           (Detcor_robust.Error.resource_kind_name res.kind)
       | None -> "VERDICT: holds")

(* ------------------------------------------------------------------ *)
(* Initial states: the invariant's states in the product space.        *)
(* ------------------------------------------------------------------ *)

(* The invariant states of the product space, in one pruned sweep
   through the program's layout.  Only the states collected count against
   [limit]: an invariant larger than [limit] exhausts the same state
   budget [Ts.build] does.  [enumerated] counts invariant evaluations,
   partial views included. *)
let init_states ?(limit = Ts.default_limit) p ~invariant =
  Obs.span "tolerance.init_states" @@ fun () ->
  let layout = Layout.compile p in
  let acc = ref [] in
  let enumerated = ref 0 and collected = ref 0 in
  (* Annotated on every exit, so a sweep stopped by [Too_large] or a
     budget trip still reports how far it got. *)
  Fun.protect
    ~finally:(fun () ->
      if Obs.on () then
        Obs.annotate
          [ Attr.int "enumerated" !enumerated; Attr.int "collected" !collected ])
    (fun () ->
      Progress.with_phase "tolerance.init_states"
        (fun () -> [ ("enumerated", !enumerated); ("collected", !collected) ])
        (fun () ->
          Layout.sweep layout
            (fun st ->
              incr enumerated;
              Pred.holds invariant st)
            (fun _ sc ->
              if !collected >= limit then raise (Ts.Too_large limit);
              incr collected;
              acc := State.scratch_copy sc :: !acc)));
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Fault spans (Section 2.3).                                          *)
(* ------------------------------------------------------------------ *)

type span = {
  pred : Pred.t;
  states : State.t list;
  ts_pf : Ts.t; (* the explored p [] F system over the span *)
}

(* The F-span of p from S: smallest T with S ⇒ T, T closed in p, and T
   closed in F — i.e. the forward closure of the S-states under p [] F. *)
let span_system ?limit ?engine ?workers p ~faults ~init =
  Obs.span "tolerance.fault_span" @@ fun () ->
  let ts =
    Ts.build ?limit ?engine ?workers (Fault.compose p faults) ~from:init
  in
  if Obs.on () then Obs.annotate [ Attr.int "span_states" (Ts.num_states ts) ];
  ts

let span_named name ts_pf states =
  { pred = Pred.of_states ~name states; states; ts_pf }

let fault_span_from_states ?limit ?engine ?workers p ~faults ~init =
  let ts_pf = span_system ?limit ?engine ?workers p ~faults ~init in
  span_named "span" ts_pf (Ts.states ts_pf)

let fault_span ?limit ?engine ?workers p ~faults ~from =
  let init = init_states ?limit p ~invariant:from in
  let ts_pf = span_system ?limit ?engine ?workers p ~faults ~init in
  span_named (Fmt.str "span(%s)" (Pred.name from)) ts_pf (Ts.states ts_pf)

(* ------------------------------------------------------------------ *)
(* "p refines SPEC from S" — correctness in the absence of faults.     *)
(* ------------------------------------------------------------------ *)

(* S must be closed in p, and every computation from S must be in SPEC
   (Section 2.2.1, Refines + Invariant). *)
let refines ts ~spec ~invariant =
  Check.all [ Check.closed ts invariant; Spec.refines ts spec ]

let refines_from_states ?limit ?engine ?workers p ~spec ~init ~invariant =
  let ts = Ts.build ?limit ?engine ?workers p ~from:init in
  (ts, refines ts ~spec ~invariant)

let refines_from ?limit ?engine ?workers p ~spec ~invariant =
  refines_from_states ?limit ?engine ?workers p ~spec ~invariant
    ~init:(init_states ?limit p ~invariant)

(* ------------------------------------------------------------------ *)
(* One tolerance context per (program, faults, invariant).             *)
(* ------------------------------------------------------------------ *)

(* The three classes share condition (i) and the span of condition (ii),
   so every system they read is built at most once, on first demand, and
   kept for the next class.  A build that raises is not memoized: the
   next read retries it, as a fresh check would. *)
type context = {
  program : Program.t;
  invariant : Pred.t;
  build : State.t list -> Ts.t; (* p from the given states *)
  init : unit -> State.t list;
  base : unit -> Ts.t; (* p from S *)
  span_ts : unit -> Ts.t; (* p [] F over the span *)
  span_states : unit -> State.t list;
  span_rec : unit -> span;
  p_span : unit -> Ts.t; (* p alone over the span *)
}

let memo f =
  let r = ref None in
  fun () ->
    match !r with
    | Some v -> v
    | None ->
      let v = f () in
      r := Some v;
      v

let context ?limit ?engine ?workers ?init p ~faults ~invariant =
  let init =
    match init with
    | Some states -> fun () -> states
    | None -> memo (fun () -> init_states ?limit p ~invariant)
  in
  let build from = Ts.build ?limit ?engine ?workers p ~from in
  let span_ts =
    memo (fun () ->
        span_system ?limit ?engine ?workers p ~faults ~init:(init ()))
  in
  let span_states = memo (fun () -> Ts.states (span_ts ())) in
  {
    program = p;
    invariant;
    build;
    init;
    base = memo (fun () -> build (init ()));
    span_ts;
    span_states;
    span_rec =
      memo (fun () ->
          span_named
            (Fmt.str "span(%s)" (Pred.name invariant))
            (span_ts ()) (span_states ()));
    p_span = memo (fun () -> build (span_states ()));
  }

let base ctx = ctx.base ()
let span_of ctx = ctx.span_rec ()
let p_over_span ctx = ctx.p_span ()

(* p from the span states satisfying [recover].  When those are exactly
   the initial states (always so for [recover] = the invariant of a swept
   context), that is the base system. *)
let recovery_system ctx recover =
  let ts_pf = ctx.span_ts () in
  let seeds = List.filter (Pred.holds recover) (ctx.span_states ()) in
  let initials = Ts.initials ts_pf in
  if
    List.compare_lengths seeds initials = 0
    && List.for_all (fun i -> Pred.holds recover (Ts.state ts_pf i)) initials
  then ctx.base ()
  else ctx.build seeds

(* ------------------------------------------------------------------ *)
(* Liveness in the presence of finitely many faults.                   *)
(* ------------------------------------------------------------------ *)

(* [leads_to_under_faults ~ts_pf ~ts_p obligation]: does "P leads to Q"
   hold on every computation of p [] F (p-fair, p-maximal, finitely many
   fault steps)?

   A violating computation has a P∧¬Q state, stays in ¬Q forever, and —
   because fault steps are finite — decomposes into a finite p[]F path
   within ¬Q followed by either a p-deadlock in ¬Q or an infinite fair
   p-only run within ¬Q.  So: reach forward within ¬Q using all edges of
   p [] F, then look for a p-deadlock or a p-fair SCC inside the reached
   region (p-only edges). *)
let leads_to_under_faults ~ts_pf ~ts_p (o : Liveness.obligation) =
  let n = Ts.num_states ts_pf in
  let not_q i = not (Ts.holds_at ts_pf o.Liveness.to_ i) in
  let starts =
    List.filter
      (fun i -> Ts.holds_at ts_pf o.Liveness.from_ i && not_q i)
      (List.init n Fun.id)
  in
  if starts = [] then Check.Holds
  else begin
    let reach = Graph.reachable ~mask:not_q ts_pf ~from:starts in
    (* The reached ¬Q region, transported to the p-only system. *)
    let region_p k =
      match Ts.index_of ts_pf (Ts.state ts_p k) with
      | Some i -> reach.(i) && not_q i
      | None -> false
    in
    let np = Ts.num_states ts_p in
    let region_states = List.filter region_p (List.init np Fun.id) in
    let deadlock =
      List.find_opt (fun k -> Ts.deadlocked ts_p k) region_states
    in
    match deadlock with
    | Some k -> Check.Fails (Check.Deadlock (Ts.state ts_p k))
    | None -> (
      match Fairness.fair_sccs ~mask:region_p ts_p with
      | scc :: _ ->
        Check.Fails (Check.Fair_cycle (List.map (Ts.state ts_p) scc.members))
      | [] -> Check.Holds)
  end

let liveness_under_faults ~ts_pf ~ts_p liveness =
  Check.all
    (List.map (leads_to_under_faults ~ts_pf ~ts_p) (Liveness.obligations liveness))

(* ------------------------------------------------------------------ *)
(* The three tolerance checkers.                                       *)
(* ------------------------------------------------------------------ *)

let check_in ?recover ctx ~spec ~tol =
  let p = ctx.program and invariant = ctx.invariant in
  match ctx.init () with
  | exception e -> (
    (* Exhaustion while enumerating the invariant itself still yields a
       well-formed report: one Unknown obligation, never an exception. *)
    match resource_of_exn e with
    | Some r ->
      let outcome = Check.Unknown r in
      count_unknown outcome;
      {
        subject = Program.name p;
        tol;
        span_size = 0;
        invariant_size = 0;
        items = [ { label = "enumerate invariant states"; outcome } ];
      }
    | None -> raise e)
  | _ ->
  Obs.span "tolerance.check"
    ~attrs:
      [
        Attr.str "program" (Program.name p);
        Attr.str "tolerance" (Fmt.str "%a" Spec.pp_tolerance tol);
      ]
  @@ fun () ->
  (* Exhaustion of the ambient budget (or of the exploration limit) inside
     any obligation is recorded here; that obligation — and every later one
     whose shared structures could not be built — reports [Unknown] instead
     of aborting the whole check.  With a generous budget nothing trips, no
     extra work runs, and the report is identical to the pre-budget one. *)
  let exhausted = ref None in
  let record e =
    match resource_of_exn e with
    | Some r ->
      if !exhausted = None then exhausted := Some r;
      Some r
    | None -> None
  in
  let guard f =
    match !exhausted with
    | Some r -> Check.Unknown r
    | None -> (
      try f ()
      with e -> (
        match record e with Some r -> Check.Unknown r | None -> raise e))
  in
  let structure f =
    match !exhausted with
    | Some _ -> None
    | None -> (
      try Some (f ())
      with e -> (match record e with Some _ -> None | None -> raise e))
  in
  let unknown () = Check.Unknown (Option.get !exhausted) in
  let base_ts = ref None in
  let base_item =
    timed "p refines SPEC from S" (fun () ->
        guard (fun () ->
            let ts = ctx.base () in
            let o = refines ts ~spec ~invariant in
            base_ts := Some ts;
            o))
  in
  (* The span (forward closure of S under p [] F).  Only the explored
     system is read eagerly; the span *state list* — linear in span size,
     and needed only by the nonmasking and masking obligations — is
     materialized on first demand, so a failsafe check of a billion-state
     span never holds the states as a list. *)
  let span_ts = structure ctx.span_ts in
  (* p alone, over the whole span: used for liveness after the faults
     stop.  Read on demand — the failsafe obligations never need it. *)
  let ts_p_span () =
    match span_ts with None -> None | Some _ -> structure ctx.p_span
  in
  let sspec = Spec.smallest_safety_containing spec in
  let safety_item () =
    timed "p[]F refines SSPEC from span" (fun () ->
        match span_ts with
        | None -> unknown ()
        | Some ts_pf -> guard (fun () -> Spec.refines ts_pf sspec))
  in
  (* Nonmasking: a suffix of every computation is in SPEC.  The paper's
     route (Theorem 4.3): converge to a recovery predicate R (default: the
     invariant S) from which SPEC is refined. *)
  let recover = match recover with Some r -> r | None -> invariant in
  let convergence_item () =
    timed
      (Fmt.str "p converges from span to %s" (Pred.name recover))
      (fun () ->
        match ts_p_span () with
        | None -> unknown ()
        | Some ts -> guard (fun () -> Check.eventually ts recover))
  in
  let recover_item () =
    timed
      (Fmt.str "p refines SPEC from %s" (Pred.name recover))
      (fun () ->
        match span_ts with
        | None -> unknown ()
        | Some _ ->
          guard (fun () ->
              refines (recovery_system ctx recover) ~spec ~invariant:recover))
  in
  (* Masking: computations of p [] F from the span are in SPEC — safety on
     the full p [] F graph, liveness under the finitely-many-faults
     semantics (Assumption 2). *)
  let liveness_item () =
    timed "liveness of SPEC on p[]F from span" (fun () ->
        match (span_ts, ts_p_span ()) with
        | Some ts_pf, Some ts_p ->
          guard (fun () ->
              liveness_under_faults ~ts_pf ~ts_p (Spec.liveness spec))
        | _ -> unknown ())
  in
  (* Each class computes exactly its own obligations, in report order —
     an unused obligation is never evaluated, so e.g. a failsafe check
     never runs the convergence analysis it would not report. *)
  let items =
    match tol with
    | Spec.Failsafe -> [ base_item; safety_item () ]
    | Spec.Nonmasking -> [ base_item; convergence_item (); recover_item () ]
    | Spec.Masking -> [ base_item; safety_item (); liveness_item () ]
  in
  {
    subject = Program.name p;
    tol;
    span_size = (match span_ts with Some ts -> Ts.num_states ts | None -> 0);
    invariant_size =
      (match !base_ts with Some ts -> Ts.num_states ts | None -> 0);
    items;
  }

let check ?limit ?engine ?workers ?recover p ~spec ~invariant ~faults ~tol =
  check_in ?recover
    (context ?limit ?engine ?workers p ~faults ~invariant)
    ~spec ~tol

let check_with ?limit ?engine ?workers ?recover p ~spec ~invariant ~init
    ~faults ~tol =
  check_in ?recover
    (context ?limit ?engine ?workers ~init p ~faults ~invariant)
    ~spec ~tol

let is_failsafe ?limit ?engine ?workers p ~spec ~invariant ~faults =
  check ?limit ?engine ?workers p ~spec ~invariant ~faults ~tol:Spec.Failsafe

let is_nonmasking ?limit ?engine ?workers ?recover p ~spec ~invariant ~faults =
  check ?limit ?engine ?workers ?recover p ~spec ~invariant ~faults
    ~tol:Spec.Nonmasking

let is_masking ?limit ?engine ?workers p ~spec ~invariant ~faults =
  check ?limit ?engine ?workers p ~spec ~invariant ~faults ~tol:Spec.Masking

(* Classify: the reports for all three classes, masking first, read from
   one shared context. *)
let classify ?limit ?engine ?workers ?recover p ~spec ~invariant ~faults =
  let ctx = context ?limit ?engine ?workers p ~faults ~invariant in
  List.map
    (fun tol -> (tol, check_in ?recover ctx ~spec ~tol))
    [ Spec.Masking; Spec.Failsafe; Spec.Nonmasking ]
