(* Unit tests for the packed state-space engine: layout round-trips, the
   bitset container, the predicate/guard caches, the located error on a
   domain escape (library and every dcheck subcommand), and determinism
   of the parallel build. *)

open Detcor_kernel
open Detcor_semantics

let vars =
  [
    ("a", Domain.boolean);
    ("b", Domain.boolean);
    ("n", Domain.range 0 2);
    ("s", Domain.symbols [ "x"; "y"; "bot" ]);
  ]

let toggle =
  Action.deterministic "toggle"
    (Pred.make "true" (fun _ -> true))
    (fun st -> State.set st "a" (Value.bool (not (Value.as_bool (State.get st "a")))))

let step =
  Action.deterministic "step"
    (Pred.make "n<2" (fun st -> Value.as_int (State.get st "n") < 2))
    (fun st -> State.set st "n" (Value.int (Value.as_int (State.get st "n") + 1)))

let program = Program.make ~name:"engine-test" ~vars ~actions:[ toggle; step ]

let layout () =
  match Layout.of_program program with
  | Some l -> l
  | None -> Alcotest.fail "layout of a small program must exist"

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let test_layout_roundtrip () =
  let l = layout () in
  Alcotest.(check int) "space" (Program.space_size program) (Layout.space l);
  Alcotest.(check int) "vars" 4 (Layout.num_vars l);
  for rank = 0 to Layout.space l - 1 do
    let st = Layout.unpack l rank in
    Alcotest.(check int) "pack(unpack rank) = rank" rank (Layout.pack l st)
  done

let test_layout_rank_order () =
  (* Rank order must be State.compare order: the packed engine relies on it
     to reproduce the reference engine's initial-state numbering. *)
  let l = layout () in
  for rank = 0 to Layout.space l - 2 do
    let st = Layout.unpack l rank and st' = Layout.unpack l (rank + 1) in
    Alcotest.(check bool) "unpack monotone wrt State.compare" true
      (State.compare st st' < 0)
  done

let test_layout_enumeration () =
  let l = layout () in
  let seen = ref [] in
  Layout.sweep l
    (fun _ -> true)
    (fun rank sc -> seen := (rank, State.scratch_copy sc) :: !seen);
  let seen = List.rev !seen in
  Alcotest.(check int) "enumerates the whole space" (Layout.space l)
    (List.length seen);
  List.iteri
    (fun k (rank, st) ->
      Alcotest.(check int) "sweep yields ranks in order" k rank;
      Alcotest.(check bool) "sweep is in rank order" true
        (State.equal st (Layout.unpack l rank)))
    seen

let test_layout_unrepresentable () =
  let l = layout () in
  let good = Layout.unpack l 0 in
  Alcotest.(check bool) "good state packs" true (Layout.pack_opt l good <> None);
  let escape st = try ignore (Layout.pack l st); None with
    | Layout.Unrepresentable e -> Some (Fmt.str "%a" Layout.pp_escape e)
  in
  let extra = State.set good "zz" (Value.int 0) in
  Alcotest.(check (option string)) "extra variable rejected"
    (Some "state binds undeclared variable zz") (escape extra);
  let missing = State.project good [ "a"; "b"; "n" ] in
  Alcotest.(check (option string)) "missing variable rejected"
    (Some "state is missing declared variable s") (escape missing);
  let out_of_domain = State.set good "n" (Value.int 99) in
  Alcotest.(check (option string)) "out-of-domain value rejected"
    (Some "variable n escaped its declared domain (value 99)")
    (escape out_of_domain)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset () =
  let b = Bitset.create 77 in
  Alcotest.(check int) "fresh cardinal" 0 (Bitset.cardinal b);
  List.iter (fun i -> Bitset.set b i) [ 0; 1; 8; 63; 64; 76 ];
  Alcotest.(check int) "cardinal after sets" 6 (Bitset.cardinal b);
  Alcotest.(check bool) "get set bit" true (Bitset.get b 64);
  Alcotest.(check bool) "get unset bit" false (Bitset.get b 2);
  Bitset.clear b 64;
  Alcotest.(check bool) "cleared" false (Bitset.get b 64);
  let evens = Bitset.of_fn 10 (fun i -> i mod 2 = 0) in
  Alcotest.(check int) "of_fn cardinal" 5 (Bitset.cardinal evens);
  let collected = ref [] in
  Bitset.iter_set evens (fun i -> collected := i :: !collected);
  Alcotest.(check (list int)) "iter_set" [ 0; 2; 4; 6; 8 ] (List.rev !collected);
  Alcotest.(check bool) "equal reflexive" true (Bitset.equal evens evens);
  Alcotest.(check bool) "not equal" false (Bitset.equal evens b);
  Alcotest.(check bool) "out of bounds" true
    (try
       ignore (Bitset.get evens 10);
       false
     with
     | Detcor_robust.Error.Detcor_error
         (Detcor_robust.Error.Internal { msg }) ->
       msg = "Bitset: index 10 out of bounds [0,10)")

(* ------------------------------------------------------------------ *)
(* Predicate / guard caches                                            *)
(* ------------------------------------------------------------------ *)

let test_pred_cache_coherence () =
  let ts = Ts.full program in
  let pred =
    Pred.make "a && n>0" (fun st ->
        Value.as_bool (State.get st "a") && Value.as_int (State.get st "n") > 0)
  in
  let bits = Ts.pred_bitset ts pred in
  for i = 0 to Ts.num_states ts - 1 do
    let direct = Pred.holds pred (Ts.state ts i) in
    Alcotest.(check bool) "bitset matches direct eval" direct (Bitset.get bits i);
    Alcotest.(check bool) "holds_at matches direct eval" direct
      (Ts.holds_at ts pred i)
  done;
  Alcotest.(check int) "satisfying agrees with bitset" (Bitset.cardinal bits)
    (List.length (Ts.satisfying ts pred));
  (* The cache is per predicate instance: the same instance returns the
     same bitset, a fresh extensionally-equal instance gets its own. *)
  Alcotest.(check bool) "cache hit returns same bitset" true
    (Ts.pred_bitset ts pred == bits)

let test_enabled_cache_coherence () =
  let ts = Ts.full program in
  for aid = 0 to Ts.num_actions ts - 1 do
    let bits = Ts.enabled_bitset ts aid in
    for i = 0 to Ts.num_states ts - 1 do
      let direct = Action.enabled (Ts.action ts aid) (Ts.state ts i) in
      Alcotest.(check bool) "enabled bitset matches guard" direct
        (Bitset.get bits i);
      Alcotest.(check bool) "enabled matches guard" direct (Ts.enabled ts i aid)
    done
  done;
  for i = 0 to Ts.num_states ts - 1 do
    let direct =
      not
        (List.exists
           (fun ac -> Action.enabled ac (Ts.state ts i))
           (Program.actions program))
    in
    Alcotest.(check bool) "deadlocked matches guards" direct (Ts.deadlocked ts i)
  done

(* ------------------------------------------------------------------ *)
(* Domain escapes                                                      *)
(* ------------------------------------------------------------------ *)

let escaping =
  (* An action that steps outside the declared domain of [n]: no layout
     can represent its successors, so every build stops with a located
     type error naming the step. *)
  Program.make ~name:"escaping"
    ~vars:[ ("n", Domain.range 0 2) ]
    ~actions:
      [
        Action.deterministic "inc"
          (Pred.make "n<9" (fun st -> Value.as_int (State.get st "n") < 9))
          (fun st -> State.set st "n" (Value.int (Value.as_int (State.get st "n") + 1)));
      ]

let escape_message =
  "action inc steps from [n=2] outside the declared domains: variable n \
   escaped its declared domain (value 3)"

let type_error f =
  match f () with
  | _ -> None
  | exception
      Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Type_error { msg })
    ->
    Some msg

let test_escape_located () =
  let from = [ State.of_list [ ("n", Value.int 0) ] ] in
  let build engine () = Ts.build ~limit:100 ~engine escaping ~from in
  Alcotest.(check (option string)) "packed build" (Some escape_message)
    (type_error (build Ts.Packed));
  Alcotest.(check (option string)) "sharded build" (Some escape_message)
    (type_error (build Ts.Sharded));
  Alcotest.(check (option string)) "packed full" (Some escape_message)
    (type_error (fun () -> Ts.full escaping));
  (* Wide enough for the parallel paths to fan out: the workers' first
     escape in id order is the sequential loop's. *)
  let wide =
    Program.make ~name:"wide"
      ~vars:(("m", Domain.range 0 15) :: Program.var_decls escaping)
      ~actions:(Program.actions escaping)
  in
  let sequential = type_error (fun () -> Ts.full wide) in
  Alcotest.(check bool) "wide program escapes" true (sequential <> None);
  Alcotest.(check (option string)) "parallel full = sequential" sequential
    (type_error (fun () -> Ts.full ~workers:3 wide));
  Alcotest.(check (option string)) "parallel of_pred = sequential" sequential
    (type_error (fun () -> Ts.of_pred ~workers:3 wide ~from:Pred.true_));
  Alcotest.(check (option string)) "parallel sharded full = sequential"
    sequential
    (type_error (fun () -> Ts.full ~engine:Ts.Sharded ~workers:3 wide));
  Alcotest.(check (option string)) "oracle predicts the message"
    (Some escape_message)
    (Detcor_oracle.Reference_ts.escape
       (Detcor_oracle.Reference_ts.build escaping ~from));
  let huge =
    Program.make ~name:"huge"
      ~vars:(List.init 40 (fun k -> (Fmt.str "v%02d" k, Domain.range 0 9)))
      ~actions:[]
  in
  Alcotest.(check (option string)) "rank overflow"
    (Some
       "program huge: the product of its 40 declared domains overflows the \
        packed rank range")
    (type_error (fun () -> Ts.build huge ~from:[]));
  Alcotest.(check (option string)) "initial state outside the domains"
    (Some
       "initial state [n=7] is outside the declared domains: variable n \
        escaped its declared domain (value 7)")
    (type_error (fun () ->
         Ts.build escaping ~from:[ State.of_list [ ("n", Value.int 7) ] ]))

(* The fixture [test/fixtures/escape.dc] declares [x : 0..3] and steps to
   [x = 4]: every subcommand, on either engine where it takes one, exits 2
   with the located message. *)
let fixture = "fixtures/escape.dc"

let fixture_message =
  "dcheck: type error: action inc steps from [x=3] outside the declared \
   domains: variable x escaped its declared domain (value 4)"

let test_escape_cli () =
  let run args =
    Test_chaos.with_temp ".out" @@ fun out ->
    let code = Test_chaos.exit_code "escape" (Test_chaos.run_dcheck args ~out) in
    let lines =
      In_channel.with_open_bin out In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    (code, List.nth_opt (List.rev lines) 0)
  in
  let expect label args =
    let code, last = run args in
    Alcotest.(check int) (label ^ ": exit code") 2 code;
    Alcotest.(check (option string)) (label ^ ": message")
      (Some fixture_message) last
  in
  List.iter
    (fun engine ->
      List.iter
        (fun sub ->
          expect
            (Fmt.str "%s --engine %s" sub engine)
            [ sub; fixture; "--engine"; engine ])
        [ "verify"; "synthesize"; "info"; "simulate" ])
    [ "packed"; "sharded" ];
  List.iter
    (fun sub -> expect sub [ sub; fixture ])
    [ "graph"; "components"; "profile" ]

(* [Program.well_formed] finds the same escape without exploring, by one
   lazy sweep of the product, in action-major order. *)
let test_well_formed_fixture () =
  let e = Detcor_lang.Elaborate.load_file fixture in
  Alcotest.(check (list string)) "escape fixture"
    [ "action inc maps [x=3] out of domain ([x=4])" ]
    (Program.well_formed e.program);
  let two =
    Program.make ~name:"two"
      ~vars:[ ("n", Domain.range 0 2) ]
      ~actions:
        [
          Action.deterministic "up"
            (Pred.make "true" (fun _ -> true))
            (fun st -> State.set st "n" (Value.int (Value.as_int (State.get st "n") + 2)));
          Action.deterministic "down"
            (Pred.make "true" (fun _ -> true))
            (fun st -> State.set st "n" (Value.int (Value.as_int (State.get st "n") - 1)));
        ]
  in
  Alcotest.(check (list string)) "grouped by action, product order"
    [
      "action up maps [n=1] out of domain ([n=3])";
      "action up maps [n=2] out of domain ([n=4])";
      "action down maps [n=0] out of domain ([n=-1])";
    ]
    (Program.well_formed two)

let test_index_of_foreign_state () =
  let ts = Ts.full program in
  let foreign = State.of_list [ ("only", Value.int 1) ] in
  Alcotest.(check bool) "unrepresentable state not indexed" true
    (Ts.index_of ts foreign = None);
  List.iter
    (fun i ->
      Alcotest.(check (option int)) "index_of inverts state" (Some i)
        (Ts.index_of ts (Ts.state ts i)))
    (List.init (Ts.num_states ts) Fun.id)

(* ------------------------------------------------------------------ *)
(* Parallel build determinism                                          *)
(* ------------------------------------------------------------------ *)

let same_system = Util.check_same_system

let test_parallel_determinism () =
  let cfg = Detcor_systems.Token_ring.make_config 5 in
  let p = Detcor_systems.Token_ring.program cfg in
  let sequential = Ts.full ~workers:1 p in
  let parallel = Ts.full ~workers:4 p in
  same_system "workers 4 = workers 1" sequential parallel

let test_parallel_matches_reference () =
  let cfg = Detcor_systems.Token_ring.make_config 4 in
  let p = Detcor_systems.Token_ring.program cfg in
  let reference = Detcor_oracle.Reference_ts.full p in
  let parallel = Ts.full ~workers:3 p in
  same_system "parallel = reference" reference parallel

let suite =
  ( "engine",
    [
      Alcotest.test_case "layout roundtrip" `Quick test_layout_roundtrip;
      Alcotest.test_case "layout rank order" `Quick test_layout_rank_order;
      Alcotest.test_case "layout enumeration" `Quick test_layout_enumeration;
      Alcotest.test_case "layout unrepresentable" `Quick test_layout_unrepresentable;
      Alcotest.test_case "bitset" `Quick test_bitset;
      Alcotest.test_case "pred cache coherence" `Quick test_pred_cache_coherence;
      Alcotest.test_case "enabled cache coherence" `Quick test_enabled_cache_coherence;
      Alcotest.test_case "domain escape is a located error" `Quick
        test_escape_located;
      Alcotest.test_case "cli: domain escape exits 2 on every subcommand"
        `Quick test_escape_cli;
      Alcotest.test_case "well_formed on the escape fixture" `Quick
        test_well_formed_fixture;
      Alcotest.test_case "index_of" `Quick test_index_of_foreign_state;
      Alcotest.test_case "parallel determinism" `Quick test_parallel_determinism;
      Alcotest.test_case "parallel matches reference" `Quick
        test_parallel_matches_reference;
    ] )
