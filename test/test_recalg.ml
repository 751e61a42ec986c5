(* Test runner: one alcotest section per subsystem. The differential
   oracle (test_oracle.ml) adds each of its cases to the section of the
   subsystem it guards, or to a section of its own, [oracle]. *)

let suites =
  [
    ("kernel", Test_kernel.suite);
    ("zset", Test_zset.suite);
    ("incremental", Test_incremental.suite);
    ("cli", Test_cli_args.suite);
    ("datalog", Test_datalog.suite);
    ("program", Test_program.suite);
    ("query", Test_query.suite);
    ("seminaive", Test_seminaive.suite);
    ("algebra", Test_algebra.suite);
    ("translate", Test_translate.suite);
    ("alg-parser", Test_alg_parser.suite);
    ("spec", Test_spec.suite);
    ("obs", Test_obs.suite);
    ("metrics", Test_metrics.suite);
    ("plan", Test_plan.suite);
    ("parallel", Test_parallel.suite);
    ("chaos", Test_chaos.suite);
    ("parameterized", Test_parameterized.suite);
    ("fuzz", Test_fuzz.suite);
  ]

let () =
  Alcotest.run "recalg"
    (List.fold_left
       (fun sections (name, case) ->
         if List.mem_assoc name sections then
           List.map (fun (n, cases) -> (n, if n = name then cases @ [ case ] else cases)) sections
         else sections @ [ (name, [ case ]) ])
       suites Test_oracle.suites)
