(* Static verifier and determinism lint tests.

   The verifier's two error classes, a cycle with no Visit bound and a
   register read before any path defines it, are built with Program.make
   (which accepts both: they are well formed) and must be rejected with
   the expected diagnostic kind at the expected step. The structural
   classes Program.make itself rejects are pinned in test_core; three of
   them are repeated here to show they never reach the verifier. Every
   seed program — the hand-built k-hop example, the compiled DSL
   queries, and the full LDBC IC/IS suite — must verify clean, and the
   engines must run them with the runtime sanitizer on without tripping
   an invariant. *)

open Pstm_engine
open Pstm_analysis

(* --- Step construction helpers ----------------------------------------- *)

let scan next = { Step.op = Step.Scan { vertex_label = None }; next }
let filter ?(pred = Step.True) next = { Step.op = Step.Filter pred; next }
let set_reg reg expr next = { Step.op = Step.Set_reg { reg; expr }; next }
let emit ?(exprs = [| Step.Vertex_id |]) () = { Step.op = Step.Emit exprs; next = -1 }
let count_agg ~reg next = { Step.op = Step.Aggregate { agg = Step.Count; reg }; next }

let program ?(name = "t") ?(n_registers = 1) ~entries steps =
  Program.make ~name ~steps:(Array.of_list steps) ~n_registers ~entries:(Array.of_list entries)

let pp_diags diags = Fmt.str "%a" Verify.pp_report diags

(* --- Rejection: one test per verifier error class ----------------------- *)

let expect_reject name p kind ~step =
  Alcotest.test_case name `Quick (fun () ->
      let diags = Verify.check_program p in
      let hit =
        List.exists
          (fun d ->
            d.Diagnostic.kind = kind && d.Diagnostic.step = Some step && Diagnostic.is_error d)
          diags
      in
      if not hit then
        Alcotest.fail
          (Fmt.str "expected %s error at step %d; verifier said:@ %s" (Diagnostic.kind_name kind)
             step (pp_diags diags)))

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The structural classes never reach the verifier: [Program.make]
   rejects them, by the rule whose message holds [says]. *)
let expect_unbuildable name ~says ?n_registers ~entries steps =
  Alcotest.test_case name `Quick (fun () ->
      match program ?n_registers ~entries steps with
      | _ -> Alcotest.fail "expected Program.Invalid"
      | exception Program.Invalid msg ->
        if not (contains msg says) then
          Alcotest.failf "expected a rejection saying %S, got %S" says msg)

let use_before_def =
  (* Reads register 0 on the entry path before anything defines it. *)
  program ~entries:[ 0 ]
    [
      scan 1;
      filter ~pred:(Step.Cmp (Step.Eq, Step.Reg 0, Step.Const (Value.Int 1))) 2;
      emit ();
    ]

let unbounded_repeat =
  (* A control-flow cycle that avoids every Visit step: traversers can
     multiply forever and the phase never terminates. *)
  program ~entries:[ 0 ] [ scan 1; filter 2; filter 1 ]

let reject_tests =
  [
    expect_reject "use before def" use_before_def Diagnostic.Use_before_def ~step:1;
    expect_reject "unbounded repeat" unbounded_repeat Diagnostic.Unbounded_repeat ~step:1;
    (* Side A writes memo rows no B side ever probes. *)
    expect_unbuildable "orphan join side" ~says:"join 0 is missing a side" ~entries:[ 0 ]
      [
        scan 1;
        { Step.op =
            Step.Join
              { join_id = 0; side = Step.Side_a; key = Step.Vertex_id; store = [||];
                load_regs = [||]; cont = 2 };
          next = -1 };
        emit ();
      ];
    expect_unbuildable "unreachable step" ~says:"step 1 (filter) is unreachable" ~entries:[ 0 ]
      [ scan 2; filter 2; emit () ];
    expect_unbuildable "register out of range" ~says:"register 3 out of range" ~entries:[ 0 ]
      [ scan 1; set_reg 3 (Step.Const (Value.Int 0)) 2; emit () ];
  ]

(* --- Acceptance: every seed program verifies clean ----------------------- *)

let check_clean name program =
  let diags = Verify.check_program program in
  if not (Verify.is_clean diags) then
    Alcotest.fail (Fmt.str "%s rejected by verifier:@ %s" name (pp_diags diags))

(* The hand-assembled k-hop count of test_smoke: the Visit loop is the
   one legitimate cycle shape. *)
let test_khop_accepted () =
  check_clean "khop"
    (program ~name:"khop" ~n_registers:2 ~entries:[ 0 ]
       [
         { Step.op = Step.Index_lookup { vertex_label = None; key = 0; value = Value.Int 7 };
           next = 1 };
         set_reg 0 (Step.Const (Value.Int 0)) 2;
         { Step.op = Step.Visit { dist_reg = 0; max_hops = 2; cont = 4; emit_improved = false };
           next = 3 };
         { Step.op = Step.Expand { dir = Graph.Out; edge_label = None }; next = 2 };
         count_agg ~reg:1 5;
         emit ~exprs:[| Step.Reg 1 |] ();
       ])

let test_ldbc_suite_accepted () =
  let data = Pstm_ldbc.Snb_gen.load Pstm_ldbc.Snb_gen.snb_tiny in
  let prng = Prng.create 7 in
  List.iter
    (fun (name, make) -> check_clean name (make data prng))
    (Pstm_ldbc.Ic_queries.all @ Pstm_ldbc.Is_queries.all)

let test_compiled_queries_accepted () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let open Pstm_query in
  let compile name ast = Compile.compile ~name graph ast in
  List.iter
    (fun (name, ast) -> check_clean name (compile name ast))
    [
      ("fig1", Dsl.(v_lookup ~key:"id" (int 3) |> repeat_out "link" ~times:2
                    |> has "id" (ne (int 3)) |> top_k "weight" 10 |> build));
      ("count", Dsl.(v_lookup ~key:"id" (int 9) |> repeat_out "link" ~times:2 |> count |> build));
      ("scan", Dsl.(v () |> out_ "link" |> dedup |> count |> build));
    ]

(* --- Runtime sanitizer: engines with ~check:true on good programs -------- *)

let fixture_graph () =
  let b = Builder.create () in
  for _ = 1 to 120 do
    ignore (Builder.add_vertex b ~label:"vertex" ())
  done;
  let edge_prng = Prng.create 12 in
  for _ = 1 to 500 do
    let s = Prng.int edge_prng 120 and d = Prng.int edge_prng 120 in
    if s <> d then ignore (Builder.add_edge b ~src:s ~label:"link" ~dst:d ())
  done;
  for v = 0 to 119 do
    Builder.set_vertex_prop b ~vertex:v ~key:"id" (Value.Int v)
  done;
  Builder.build b

let fixture_program graph =
  let open Pstm_query in
  Compile.compile ~name:"sanitized" graph
    Dsl.(v_lookup ~key:"id" (int 7) |> repeat_out "link" ~times:2 |> count |> build)

let test_local_check () =
  let graph = fixture_graph () in
  let program = fixture_program graph in
  let plain = Local_engine.run graph program in
  let checked =
    Local_engine.run ~common:(Engine.Common.with_check true Engine.Common.default) graph program
  in
  Alcotest.(check int) "same rows" (List.length plain) (List.length checked)

let test_async_check () =
  let graph = fixture_graph () in
  let program = fixture_program graph in
  let report =
    Async_engine.run
      ~common:(Engine.Common.with_check true Engine.Common.default)
      ~cluster_config:{ Cluster.default_config with n_nodes = 4; workers_per_node = 4 }
      ~channel_config:Channel.default_config ~graph
      [| Engine.submit program |]
  in
  Alcotest.(check bool) "completed under sanitizer" true (Engine.all_completed report);
  let local = Local_engine.run graph program in
  let show rows = Fmt.str "%a" (Fmt.list (Fmt.array Value.pp)) (Engine.sorted_rows rows) in
  Alcotest.(check string) "rows agree" (show local)
    (show report.Engine.queries.(0).Engine.rows)

let test_bsp_check () =
  let graph = fixture_graph () in
  let program = fixture_program graph in
  let report =
    Bsp_engine.run
      ~common:(Engine.Common.with_check true Engine.Common.default)
      ~cluster_config:{ Cluster.default_config with n_nodes = 4; workers_per_node = 4 }
      ~graph
      [| Engine.submit program |]
  in
  Alcotest.(check bool) "completed under sanitizer" true (Engine.all_completed report)

(* --- Determinism lint ---------------------------------------------------- *)

let findings src = Source_lint.scan ~file:"test.ml" src

let hazards src = List.map (fun f -> f.Source_lint.hazard) (findings src)

let test_lint_detects () =
  Alcotest.(check int) "hashtbl iter flagged" 1
    (List.length (findings "let () = Hashtbl.iter f t\n"));
  (match hazards "let () = Hashtbl.iter f t\n" with
  | [ Source_lint.Unordered_iteration ] -> ()
  | _ -> Alcotest.fail "expected unordered-iteration");
  (match hazards "let xs = List.sort compare xs\n" with
  | [ Source_lint.Polymorphic_compare ] -> ()
  | _ -> Alcotest.fail "expected polymorphic-compare");
  (match hazards "let x = Random.int 5\n" with
  | [ Source_lint.Raw_random ] -> ()
  | _ -> Alcotest.fail "expected raw-random");
  (match hazards "let t = Sys.time ()\n" with
  | [ Source_lint.Wall_clock ] -> ()
  | _ -> Alcotest.fail "expected wall-clock");
  (* Line numbers are 1-based and survive comment stripping. *)
  match findings "(* a\n   comment *)\nlet () = Hashtbl.fold f t []\n" with
  | [ f ] -> Alcotest.(check int) "line" 3 f.Source_lint.line
  | fs -> Alcotest.fail (Fmt.str "expected 1 finding, got %d" (List.length fs))

let test_lint_float_compare () =
  (match hazards "let c = compare (x : float) y\n" with
  | [ Source_lint.Float_compare ] -> ()
  | _ -> Alcotest.fail "expected float-compare");
  (* Bare [compare] near floats is flagged even without a sort needle;
     the sort needle stacks a second finding when both apply. *)
  (match hazards "let xs = List.sort compare float_scores\n" with
  | [ Source_lint.Polymorphic_compare; Source_lint.Float_compare ]
  | [ Source_lint.Float_compare; Source_lint.Polymorphic_compare ] -> ()
  | _ -> Alcotest.fail "expected polymorphic-compare + float-compare");
  (* Module-qualified compares and non-float lines are fine. *)
  Alcotest.(check int) "Float.compare is the fix, not a hazard" 0
    (List.length (findings "let c = Float.compare x y\n"));
  Alcotest.(check int) "bare compare without floats is not this class" 0
    (List.length (findings "let c = compare a b\n"));
  Alcotest.(check int) "identifier containing 'compare' untouched" 0
    (List.length (findings "let c = my_compare_floats x y\n"))

let test_lint_self_init () =
  match hazards "let () = Random.self_init ()\n" with
  | [ Source_lint.Raw_random ] -> ()
  | _ -> Alcotest.fail "expected raw-random for self_init"

let test_lint_allowlist () =
  Alcotest.(check int) "same-line marker suppresses" 0
    (List.length (findings "Hashtbl.iter f t (* det-ok: commutative sum *)\n"));
  Alcotest.(check int) "preceding-line marker suppresses" 0
    (List.length (findings "(* det-ok: sorted below *)\nHashtbl.fold f t []\n"));
  Alcotest.(check int) "marker without a reason does not suppress" 1
    (List.length (findings "Hashtbl.iter f t (* det-ok: *)\n"));
  Alcotest.(check int) "marker only covers the next line" 1
    (List.length (findings "(* det-ok: sorted *)\nlet x = 1\nHashtbl.iter f t\n"))

let test_lint_ignores_comments_and_strings () =
  Alcotest.(check int) "comment mention not flagged" 0
    (List.length (findings "(* callers must avoid Hashtbl.iter here *)\nlet x = 1\n"));
  Alcotest.(check int) "string literal not flagged" 0
    (List.length (findings "let s = \"Hashtbl.iter\"\n"));
  Alcotest.(check int) "nested comment stripped" 0
    (List.length (findings "(* outer (* Random.int *) still comment *)\nlet x = 1\n"))

let test_lint_repo_tree_shape () =
  (* The real tree scan is the @lint alias under dune runtest; here, just
     pin the scanner's file discovery behavior on a tiny shape. *)
  Alcotest.(check bool) "scan of empty source is clean" true (findings "" = [])

let () =
  Alcotest.run "analysis"
    [
      ("reject", reject_tests);
      ( "accept",
        [
          Alcotest.test_case "khop raw program" `Quick test_khop_accepted;
          Alcotest.test_case "ldbc ic/is suite" `Quick test_ldbc_suite_accepted;
          Alcotest.test_case "compiled dsl queries" `Quick test_compiled_queries_accepted;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "local engine with check" `Quick test_local_check;
          Alcotest.test_case "async engine with check" `Quick test_async_check;
          Alcotest.test_case "bsp engine with check" `Quick test_bsp_check;
        ] );
      ( "lint",
        [
          Alcotest.test_case "detects hazard classes" `Quick test_lint_detects;
          Alcotest.test_case "float-bearing compare" `Quick test_lint_float_compare;
          Alcotest.test_case "random self_init" `Quick test_lint_self_init;
          Alcotest.test_case "det-ok allowlist" `Quick test_lint_allowlist;
          Alcotest.test_case "comments and strings" `Quick test_lint_ignores_comments_and_strings;
          Alcotest.test_case "empty source" `Quick test_lint_repo_tree_shape;
        ] );
    ]
