(* In-process traced twin of one `dcheck verify | synthesize | monitor`
   invocation, for the pipeline benchmark's per-layer numbers.

   It makes the same library calls the CLI makes, in the same order and
   with the same defaults (--workers 1, the default --limit, engine Auto),
   but splits them at each layer's public functions and records a span
   around every call:

     tracer.exe verify FILE [--tolerance CLASS] --out TRACE.json
     tracer.exe synthesize FILE [--tolerance CLASS] --out TRACE.json
     tracer.exe full FILE --out TRACE.json
     tracer.exe monitor FILE --stream STREAM --out TRACE.json

   stdout carries the same verdict text as the CLI (verify and synthesize
   reports byte for byte; the monitor's summary lines), and the exit code
   follows the CLI's contract, so the harness can hold both to one answer.
   [full] is a probe, not a CLI twin: it times the [Ts.full] build of
   p [] F that masking and fail-safe synthesis make first.

   Spans are kept in memory and written to TRACE.json at exit.  Tight
   per-run loops (monitor) are accumulated per name rather than recorded
   one span per call.  Spans marked [~rss] reset the process's VmHWM
   before the call and read it after, so each reports its own peak. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec
open Detcor_core
module Ts = Detcor_semantics.Ts
module Obs = Detcor_obs.Obs
module Metrics = Detcor_obs.Metrics
module Synthesize = Detcor_synthesis.Synthesize

let limit = Ts.default_limit
let workers = 1
let seconds_since_start =
  let t0 = Obs.now_ns () in
  fun () -> Int64.to_float (Int64.sub (Obs.now_ns ()) t0) *. 1e-9

type span = {
  name : string;
  parent : string;
  start_s : float;
  end_s : float;
  peak_rss_mb : float option;
}

let spans : span list ref = ref []
let loops : (string, float * int) Hashtbl.t = Hashtbl.create 8
(* Counts add up across calls (one init_states per tolerance class). *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let count name v =
  Hashtbl.replace counts name
    (v + Option.value ~default:0 (Hashtbl.find_opt counts name))

let span ?(parent = "") ?(rss = false) name f =
  let tracked = rss && Pipebench_rss.reset_peak () in
  let start_s = seconds_since_start () in
  let r = f () in
  let end_s = seconds_since_start () in
  let peak_rss_mb =
    if tracked then
      Option.map (fun kb -> float_of_int kb /. 1024.) (Pipebench_rss.peak_kb ())
    else None
  in
  spans := { name; parent; start_s; end_s; peak_rss_mb } :: !spans;
  r

let accumulate name dt =
  let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt loops name) in
  Hashtbl.replace loops name (s +. dt, n + 1)

(* Accumulate [f]'s duration under [name] without a span per call. *)
let loop name f =
  let t = seconds_since_start () in
  let r = f () in
  accumulate name (seconds_since_start () -. t);
  r

(* Engine counters tick only while a recording context is installed; a
   context with no sinks turns them on without writing anything. *)
let counter_delta names f =
  let before = List.map Metrics.counter_value_by_name names in
  let r = f () in
  List.iter2
    (fun name b -> count name (Metrics.counter_value_by_name name - b))
    names before;
  r

let elaborate file =
  span "lang.elaborate" (fun () -> Detcor_lang.Elaborate.load_file file)

(* Everything for stdout goes through one channel, as text. *)
let out fmt = Fmt.kstr print_string fmt

let print_report ~parent report =
  let text =
    span ~parent "core.report" (fun () -> Fmt.str "%a@.@." Tolerance.pp_report report)
  in
  print_string text

(* ------------------------------------------------------------------ *)
(* verify: Tolerance.check_with, one public call per obligation.       *)
(* ------------------------------------------------------------------ *)

let check_parent tol = Fmt.str "core.check[%a]" Spec.pp_tolerance tol

let check_class (e : Detcor_lang.Elaborate.elaborated) tol =
  let p = e.program and invariant = e.invariant and spec = e.spec in
  let parent = check_parent tol in
  let span ?rss name f = span ~parent ?rss name f in
  let init =
    span ~rss:true "core.init_states" (fun () ->
        Tolerance.init_states ~limit p ~invariant)
  in
  count "core.init_states.enumerated" (Program.space_size p);
  count "core.init_states.invariant" (List.length init);
  let base_ts, base =
    span "core.refines_base" (fun () ->
        Tolerance.refines_from_states ~limit ~workers p ~spec ~init ~invariant)
  in
  let fspan =
    span ~rss:true "semantics.span_build" (fun () ->
        Tolerance.fault_span_from_states ~limit ~workers p ~faults:e.faults
          ~init)
  in
  count "semantics.span_states" (Ts.num_states fspan.ts_pf);
  count "semantics.span_edges" (Ts.num_edges fspan.ts_pf);
  let item label outcome = { Tolerance.label; outcome } in
  let base_item = item "p refines SPEC from S" base in
  let safety () =
    item "p[]F refines SSPEC from span"
      (span "spec.safety" (fun () ->
           Spec.refines fspan.ts_pf (Spec.smallest_safety_containing spec)))
  in
  let ts_p () =
    span "semantics.p_span_build" (fun () ->
        Ts.build ~limit ~workers p ~from:fspan.states)
  in
  let items =
    match tol with
    | Spec.Failsafe ->
      let s = safety () in
      [ base_item; s ]
    | Spec.Nonmasking ->
      let ts = ts_p () in
      let conv =
        item
          (Fmt.str "p converges from span to %s" (Pred.name invariant))
          (span "semantics.converge" (fun () -> Check.eventually ts invariant))
      in
      let recovered =
        item
          (Fmt.str "p refines SPEC from %s" (Pred.name invariant))
          (span "core.recover" (fun () ->
               let ts_rec =
                 Ts.build ~limit ~workers p
                   ~from:(List.filter (Pred.holds invariant) fspan.states)
               in
               Check.all
                 [ Check.closed ts_rec invariant; Spec.refines ts_rec spec ]))
      in
      [ base_item; conv; recovered ]
    | Spec.Masking ->
      let s = safety () in
      let ts = ts_p () in
      let live =
        item "liveness of SPEC on p[]F from span"
          (span "core.liveness" (fun () ->
               Tolerance.liveness_under_faults ~ts_pf:fspan.ts_pf ~ts_p:ts
                 (Spec.liveness spec)))
      in
      [ base_item; s; live ]
  in
  {
    Tolerance.subject = Program.name p;
    tol;
    span_size = Ts.num_states fspan.ts_pf;
    invariant_size = Ts.num_states base_ts;
    items;
  }

let verify file tol =
  let e = elaborate file in
  let classes =
    match tol with
    | Some t -> [ t ]
    | None -> [ Spec.Failsafe; Spec.Nonmasking; Spec.Masking ]
  in
  let reports =
    counter_delta
      [ "engine.builds"; "engine.pred_cache.hits"; "engine.pred_cache.misses" ]
      (fun () ->
        List.map
          (fun tol ->
            let r = check_class e tol in
            print_report ~parent:(check_parent tol) r;
            r)
          classes)
  in
  if List.exists (fun r -> Tolerance.failures r <> []) reports then begin
    prerr_endline "dcheck: verification failed";
    1
  end
  else if List.exists (fun r -> Tolerance.unknowns r <> []) reports then 3
  else 0

(* ------------------------------------------------------------------ *)
(* synthesize and the full-product probe                               *)
(* ------------------------------------------------------------------ *)

let synthesize file tol =
  let e = elaborate file in
  let p = e.program and spec = e.spec and invariant = e.invariant in
  let faults = e.faults in
  let result =
    counter_delta [ "engine.builds"; "engine.states_visited" ] (fun () ->
        span ~rss:true "synthesis.add" (fun () ->
            match Option.value ~default:Spec.Masking tol with
            | Spec.Failsafe ->
              Synthesize.add_failsafe ~limit ~workers p ~spec ~invariant ~faults
            | Spec.Nonmasking ->
              Synthesize.add_nonmasking ~limit ~workers p ~spec ~invariant
                ~faults
            | Spec.Masking ->
              Synthesize.add_masking ~limit ~workers p ~spec ~invariant ~faults))
  in
  match result with
  | Error (Synthesize.Exhausted r) ->
    Fmt.epr "dcheck: %a@." Detcor_robust.Error.pp_resource r;
    3
  | Error f ->
    Fmt.epr "synthesis failed: %a@." Synthesize.pp_failure f;
    1
  | Ok r ->
    count "synthesis.repair_iterations" r.repair_iterations;
    count "synthesis.recovery_states" r.recovery_states;
    out "synthesized %s@." (Program.name r.program);
    List.iter
      (fun (ac, g) -> out "  detector added to %-12s (%s)@." ac (Pred.name g))
      r.added_detectors;
    if r.recovery_states > 0 then
      out "  corrector added: recovery from %d states@." r.recovery_states;
    if r.repair_iterations > 0 then
      out "  counterexample-guided repair: %d iteration%s@."
        r.repair_iterations
        (if r.repair_iterations = 1 then "" else "s");
    let text =
      span "core.report" (fun () -> Fmt.str "@.%a@." Tolerance.pp_report r.report)
    in
    print_string text;
    0

let full file =
  let e = elaborate file in
  let ts =
    span ~rss:true "semantics.full_build" (fun () ->
        Ts.full ~limit ~workers (Fault.compose e.program e.faults))
  in
  count "semantics.full_states" (Ts.num_states ts);
  count "semantics.full_edges" (Ts.num_edges ts);
  out "full p[]F: %d states, %d edges@." (Ts.num_states ts) (Ts.num_edges ts);
  0

(* ------------------------------------------------------------------ *)
(* monitor: the CLI's stream sweep without its per-batch printing      *)
(* ------------------------------------------------------------------ *)

let batch_size = 256

let monitor file stream =
  let open Detcor_sim in
  let e = elaborate file in
  let sspec = Spec.safety (Spec.smallest_safety_containing e.spec) in
  let family =
    Pred.not_ e.invariant
    :: Pred.make (Fmt.str "bad(%s)" (Safety.name sspec)) (Safety.bad_state sspec)
    :: List.map
         (fun ac -> Detection_predicate.unsafe ~sspec ac)
         (Program.actions e.program)
  in
  let syn =
    span "sim.syndrome_compile" (fun () ->
        Syndrome.compile ~program:e.program family)
  in
  let nruns = ref 0 and nstates = ref 0 and nfaults = ref 0 in
  let violations = ref 0 in
  (* Stream.fold parses a run, then calls back: parse time is the time
     between callbacks, plus the conversion to the simulator's run. *)
  let parse_mark = ref (seconds_since_start ()) in
  let add_parse () =
    accumulate "sim.stream_parse" (seconds_since_start () -. !parse_mark)
  in
  let monitor_run () (r : Stream.run) =
    add_parse ();
    let rr = loop "sim.stream_parse" (fun () -> Stream.to_run r) in
    let states = Trace.states rr.trace in
    let rec batches = function
      | [] -> ()
      | rest ->
        let rec take acc i = function
          | st :: more when i < batch_size -> take (st :: acc) (i + 1) more
          | more -> (List.rev acc, more)
        in
        let chunk, more = take [] 0 rest in
        ignore (loop "sim.syndrome_eval" (fun () -> Syndrome.of_states syn chunk));
        batches more
    in
    batches states;
    (match
       loop "sim.safety_scan" (fun () -> Monitor.first_safety_violation rr sspec)
     with
    | Some _ -> incr violations
    | None -> ());
    incr nruns;
    nstates := !nstates + List.length states;
    nfaults := !nfaults + List.length rr.fault_steps;
    parse_mark := seconds_since_start ()
  in
  let ic = open_in stream in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      counter_delta [ "sim.syndrome.hits"; "sim.syndrome.misses" ] (fun () ->
          ignore (Stream.fold ic ~init:() ~f:monitor_run)));
  add_parse ();
  count "sim.states" !nstates;
  out "runs: %d  states: %d  faults: %d@." !nruns !nstates !nfaults;
  out "safety violations: %d/%d@." !violations !nruns;
  if !violations > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* trace output and entry point                                        *)
(* ------------------------------------------------------------------ *)

let json_string s = Fmt.str "%S" s

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Fmt.str "%.0f" f
  else Fmt.str "%.9g" f

let write_trace path ~id ~exit_code =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let fields l = String.concat ", " l in
  let span_json s =
    Fmt.str "{%s}"
      (fields
         [
           "\"name\": " ^ json_string s.name;
           "\"parent\": " ^ json_string s.parent;
           "\"start_s\": " ^ json_float s.start_s;
           "\"end_s\": " ^ json_float s.end_s;
           "\"peak_rss_mb\": "
           ^ (match s.peak_rss_mb with Some v -> json_float v | None -> "null");
         ])
  in
  let loop_json (name, (s, n)) =
    Fmt.str "%s: {\"s\": %s, \"calls\": %d}" (json_string name) (json_float s) n
  in
  let count_json (name, v) = Fmt.str "%s: %d" (json_string name) v in
  Printf.fprintf oc
    "{\"id\": %s, \"exit\": %d, \"wall_s\": %s, \"spans\": [%s], \"loops\": \
     {%s}, \"counts\": {%s}}\n"
    (json_string id) exit_code
    (json_float (seconds_since_start ()))
    (fields (List.rev_map span_json !spans))
    (fields (List.map loop_json (List.of_seq (Hashtbl.to_seq loops))))
    (fields (List.map count_json (List.of_seq (Hashtbl.to_seq counts))))

let usage () =
  prerr_endline
    "usage: tracer.exe (verify|synthesize|full|monitor) FILE [--tolerance \
     CLASS] [--stream FILE] --out TRACE.json [--id ID]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      opts ((key, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | cmd :: file :: rest ->
    let o = opts [] rest in
    let out = match List.assoc_opt "--out" o with Some p -> p | None -> usage () in
    let id = Option.value ~default:file (List.assoc_opt "--id" o) in
    let tol =
      match List.assoc_opt "--tolerance" o with
      | None -> None
      | Some s -> (
        match Spec.tolerance_of_string s with Some t -> Some t | None -> usage ())
    in
    Obs.set_current (Obs.make ~sinks:[] ());
    let code =
      match cmd with
      | "verify" -> verify file tol
      | "synthesize" -> synthesize file tol
      | "full" -> full file
      | "monitor" -> (
        match List.assoc_opt "--stream" o with
        | Some s -> monitor file s
        | None -> usage ())
      | _ -> usage ()
    in
    flush stdout;
    write_trace out ~id ~exit_code:code;
    exit code
  | _ -> usage ()
