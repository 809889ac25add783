(* End-to-end tests of the shared tolerance context: spawn the real
   binary and pin down that

   - `dcheck verify` prints, byte for byte, the reports and exit codes in
     [golden/] for every shipped example (all classes, and --explain on
     the intolerant memory), and `dcheck synthesize` its reports for tmr,
     the intolerant memory (masking) and ring5 (nonmasking);
   - a three-class verify builds each system once: base, span, and p over
     the span (3 builds, where per-class construction took 9);
   - the initial-state sweep is its own traced phase, and prunes the
     subtrees the invariant rejects (or, when the invariant reads the
     last variable first, prunes nothing and still matches the full walk);
   - `simulate` takes its first invariant state from the sweep without
     materializing a 10^7-state product. *)

let dcheck = "../bin/dcheck.exe"
let corpus = "../examples/dc"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run dcheck with stdout to [out] and stderr discarded; the exit code. *)
let run_dcheck args ~out =
  let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
  let pid =
    Unix.create_process dcheck (Array.of_list (dcheck :: args)) Unix.stdin fd
      null
  in
  Unix.close fd;
  Unix.close null;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED sg -> Alcotest.failf "killed by signal %d" sg
  | Unix.WSTOPPED sg -> Alcotest.failf "stopped by signal %d" sg

let with_temp suffix k =
  let path = Filename.temp_file "detcor_context" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> k path)

(* A golden file holds the run's stdout followed by an "exit N" line. *)
let golden_case name args =
  Alcotest.test_case name `Quick (fun () ->
      with_temp ".out" @@ fun out ->
      let code = run_dcheck args ~out in
      let actual = read_file out ^ Fmt.str "exit %d\n" code in
      Alcotest.(check string)
        (Fmt.str "matches golden/%s" name)
        (read_file (Filename.concat "golden" name))
        actual)

let examples =
  [ "barrier"; "byz4"; "leader"; "memory"; "memory_intolerant"; "reset7";
    "ring5"; "tmr"; "token_ring" ]

let golden_cases =
  List.map
    (fun n ->
      golden_case (n ^ ".verify")
        [ "verify"; Filename.concat corpus (n ^ ".dc") ])
    examples
  @ [
      golden_case "memory_intolerant.explain"
        [ "verify"; "--explain";
          Filename.concat corpus "memory_intolerant.dc" ];
    ]

(* Synthesis reads the whole p[]F product: these pin its numbering-
   sensitive output (recovery sizes, invariant sizes) byte for byte.
   byz4 and reset7 are too slow here and are diffed in CI instead. *)
let synthesis_golden_cases =
  List.map
    (fun n ->
      golden_case (n ^ ".synthesize")
        [ "synthesize"; Filename.concat corpus (n ^ ".dc") ])
    [ "tmr"; "memory_intolerant" ]
  @ [
      golden_case "ring5.synthesize-nonmasking"
        [ "synthesize"; "--tolerance"; "nonmasking";
          Filename.concat corpus "ring5.dc" ];
    ]

let test_three_builds () =
  with_temp ".out" @@ fun out ->
  with_temp ".json" @@ fun metrics ->
  let code =
    run_dcheck
      [ "verify"; Filename.concat corpus "ring5.dc"; "--metrics"; metrics ]
      ~out
  in
  Alcotest.(check int) "ring5 verify exits 1 (fail-safe fails)" 1 code;
  match Detcor_obs.Jsonx.of_string (read_file metrics) with
  | Error e -> Alcotest.failf "--metrics unparseable: %s" e
  | Ok json ->
    let builds =
      Option.bind (Detcor_obs.Jsonx.member "counters" json) (fun cs ->
          Option.bind (Detcor_obs.Jsonx.member "engine.builds" cs)
            Detcor_obs.Jsonx.to_int)
    in
    Alcotest.(check (option int))
      "base, span and p over the span, once each" (Some 3) builds

(* The attributes of the one [tolerance.init_states] span a traced
   verify of [file] leaves, after checking its exit code. *)
let init_states_attrs file args ~expect_exit =
  with_temp ".out" @@ fun out ->
  with_temp ".jsonl" @@ fun trace ->
  let code = run_dcheck ([ "verify"; file; "--trace"; trace ] @ args) ~out in
  Alcotest.(check int) (file ^ " verify exit code") expect_exit code;
  let ends =
    String.split_on_char '\n' (read_file trace)
    |> List.filter_map (fun line ->
           match Detcor_obs.Jsonx.of_string line with
           | Ok j
             when Option.bind (Detcor_obs.Jsonx.member "type" j)
                    Detcor_obs.Jsonx.to_str
                  = Some "end"
                  && Option.bind (Detcor_obs.Jsonx.member "name" j)
                       Detcor_obs.Jsonx.to_str
                     = Some "tolerance.init_states" ->
             Detcor_obs.Jsonx.member "attrs" j
           | _ -> None)
  in
  let attr a name =
    Option.bind (Detcor_obs.Jsonx.member name a) Detcor_obs.Jsonx.to_int
  in
  match ends with
  | [ a ] -> (attr a "enumerated", attr a "collected")
  | l ->
    Alcotest.failf "expected one init_states span, found %d" (List.length l)

let test_init_states_span () =
  let enumerated, collected =
    init_states_attrs "fixtures/wide.dc" [] ~expect_exit:0
  in
  (* The sweep prunes every subtree the invariant rejects: 5 levels of
     10 values each, one of which descends. *)
  Alcotest.(check (option int))
    "5 levels x 10 values are tested" (Some 50) enumerated;
  Alcotest.(check (option int))
    "one invariant state is collected" (Some 1) collected

(* An invariant that reads the last layout variable first is undecided on
   every partial view: nothing prunes, yet the sweep must still yield the
   full walk's states and honour --limit. *)
let test_unpruned_sweep () =
  let e = Detcor_lang.Elaborate.load_file "fixtures/lastfirst.dc" in
  let expected = ref [] in
  Detcor_oracle.Reference_sweep.sweep
    (Detcor_semantics.Layout.compile e.program)
    (Detcor_kernel.Pred.holds e.invariant)
    (fun _ sc -> expected := Detcor_kernel.State.scratch_copy sc :: !expected);
  let show = List.map Detcor_kernel.State.to_string in
  Alcotest.(check (list string))
    "init states = the full walk's" (show (List.rev !expected))
    (show (Detcor_core.Tolerance.init_states e.program ~invariant:e.invariant));
  let enumerated, collected =
    init_states_attrs "fixtures/lastfirst.dc" [ "--limit"; "1000" ]
      ~expect_exit:0
  in
  Alcotest.(check (option int))
    "every partial and full state is tested" (Some (1110 + 10_000))
    enumerated;
  Alcotest.(check (option int)) "100 invariant states" (Some 100) collected;
  with_temp ".out" @@ fun out ->
  Alcotest.(check int) "--limit 99 exhausts the state budget" 3
    (run_dcheck [ "verify"; "fixtures/lastfirst.dc"; "--limit"; "99" ] ~out);
  (* A sweep stopped by --limit still annotates its span: 99 states are
     collected before the 100th exhausts the budget (exit 3).  One class
     only: the context does not memoize a failed build, so each class of
     a three-class verify would sweep again. *)
  let enumerated, collected =
    init_states_attrs "fixtures/lastfirst.dc"
      [ "--limit"; "99"; "--tolerance"; "failsafe" ]
      ~expect_exit:3
  in
  Alcotest.(check bool) "enumerated present on early exit" true
    (Option.is_some enumerated);
  Alcotest.(check (option int)) "99 states collected before the trip"
    (Some 99) collected

let test_simulate_sparse () =
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck
      [ "simulate"; "fixtures/sparse7.dc"; "--runs"; "1"; "--steps"; "5";
        "--memory-budget"; "256" ]
      ~out
  in
  Alcotest.(check int) "simulate fits in 256 MB" 0 code

let suite =
  ( "tolerance context (shared systems, golden verify)",
    golden_cases
    @ [
        Alcotest.test_case "three-class verify builds 3 systems" `Quick
          test_three_builds;
        Alcotest.test_case "init sweep is a traced phase" `Quick
          test_init_states_span;
        Alcotest.test_case "sweep that prunes nothing" `Quick
          test_unpruned_sweep;
        Alcotest.test_case "simulate does not materialize the product" `Quick
          test_simulate_sparse;
      ]
    @ synthesis_golden_cases )
