(* Argument parity across CLI verbs: every subcommand must document the
   shared evaluation switches (--fuel, --trace, --profile) identically —
   they all route through Common_args.term, and this pins that no verb
   drifts out of the shared block again. *)

let exe_candidates =
  [
    "../bin/recalg_cli.exe";            (* dune runtest: cwd = _build/default/test *)
    "_build/default/bin/recalg_cli.exe"; (* dune exec from the repo root *)
    "bin/recalg_cli.exe";
  ]

let find_exe () = List.find_opt Sys.file_exists exe_candidates

let help_text exe verb =
  let tmp = Filename.temp_file "recalg_help" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s --help=plain > %s 2>&1"
          (Filename.quote exe) verb (Filename.quote tmp)
      in
      let rc = Sys.command cmd in
      if rc <> 0 then Alcotest.failf "%s %s --help exited %d" exe verb rc;
      let ic = open_in_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let verbs = [ "run"; "alg"; "query"; "update"; "check"; "translate" ]

let shared_flags =
  [ "--fuel"; "--trace"; "--profile"; "--stats"; "--domains"; "--plan";
    "--par-threshold"; "--stats-file"; "--timeout"; "--memory-limit";
    "--degrade" ]

let test_parity () =
  match find_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    List.iter
      (fun verb ->
        let help = help_text exe verb in
        List.iter
          (fun flag ->
            if not (contains ~needle:flag help) then
              Alcotest.failf "verb %S does not document %s" verb flag)
          shared_flags)
      verbs

(* The documented exit-code contract, end to end: a divergent program
   (Peano) under a huge fuel budget but a short deadline exits 4; under
   a small fuel budget it exits 3. [Sys.command] returns the exit code
   directly. *)
let test_exit_codes () =
  match find_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let dl = Filename.temp_file "recalg_diverge" ".dl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove dl with Sys_error _ -> ())
      (fun () ->
        let oc = open_out dl in
        output_string oc "p(z). p(s(X)) :- p(X).\n";
        close_out oc;
        let run args =
          Sys.command
            (Printf.sprintf "%s run %s %s >/dev/null 2>&1" (Filename.quote exe)
               (Filename.quote dl) args)
        in
        Alcotest.(check int) "deadline exits 4" 4
          (run "--fuel 1000000000 --timeout 100");
        Alcotest.(check int) "fuel exits 3" 3 (run "--fuel 1000");
        Alcotest.(check int) "degraded run reports the exhausted resource" 3
          (run "--fuel 1000 --degrade");
        (* A budget that cannot take one step is a usage error, reported
           by the argument parser before evaluation. *)
        Alcotest.(check int) "zero fuel is a usage error" 124 (run "--fuel 0");
        Alcotest.(check int) "negative fuel is a usage error" 124 (run "--fuel=-5");
        (* Output files in a missing directory: a structured error before
           evaluation, not an uncaught Sys_error. *)
        let missing =
          Filename.concat (Filename.get_temp_dir_name ()) "recalg-no-such-dir"
        in
        Alcotest.(check bool) "test directory absent" false (Sys.file_exists missing);
        Alcotest.(check int) "trace into a missing directory exits 6" 6
          (run ("--trace " ^ Filename.quote (Filename.concat missing "t.jsonl")));
        Alcotest.(check int) "metrics into a missing directory exits 6" 6
          (run ("--metrics " ^ Filename.quote (Filename.concat missing "m.prom")));
        (* An unsafe program is a structured error on every verb that
           evaluates or translates it, not an uncaught exception. *)
        let oc = open_out dl in
        output_string oc "q(1). p(X) :- not q(X).\n";
        close_out oc;
        let verb args =
          Sys.command
            (Printf.sprintf "%s %s %s >/dev/null 2>&1" (Filename.quote exe)
               args (Filename.quote dl))
        in
        List.iter
          (fun args ->
            Alcotest.(check int) ("unsafe program exits 1: " ^ args) 1
              (verb args))
          [ "run -s valid"; "run -s wellfounded"; "run -s inflationary";
            "run -s stable"; "run -s stratified"; "translate"; "report" ];
        Alcotest.(check int) "unsafe program exits 1: query" 1
          (Sys.command
             (Printf.sprintf "%s query %s 'p(X)' >/dev/null 2>&1"
                (Filename.quote exe) (Filename.quote dl)));
        (* Integer literals beyond the native range are parse errors in
           every input the CLI reads. *)
        let huge = "99999999999999999999999" in
        let cli args =
          Sys.command
            (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote exe) args)
        in
        let with_file ext contents f =
          let path = Filename.temp_file "recalg_huge" ext in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              let oc = open_out path in
              output_string oc contents;
              close_out oc;
              f (Filename.quote path))
        in
        with_file ".dl" ("p(" ^ huge ^ ").\n") (fun p ->
            Alcotest.(check int) "out-of-range literal in a program exits 2" 2
              (cli ("run " ^ p)));
        with_file ".alg" ("let y = {" ^ huge ^ "};\n") (fun p ->
            Alcotest.(check int) "out-of-range literal in an algebra program exits 2" 2
              (cli ("alg " ^ p)));
        with_file ".upd" ("+p(" ^ huge ^ ").\n") (fun u ->
            let oc = open_out dl in
            output_string oc "p(1).\n";
            close_out oc;
            Alcotest.(check int) "out-of-range literal in an update exits 2" 2
              (cli (Printf.sprintf "update %s %s" (Filename.quote dl) u)));
        (* A query naming no relation is an invalid program; an input
           that cannot be read is reported before evaluation. *)
        let dir = Filename.quote (Filename.get_temp_dir_name ()) in
        with_file ".alg" "let y = {1};\nquery nosuchrel;\n" (fun p ->
            Alcotest.(check int) "undefined relation exits 1" 1 (cli ("alg " ^ p)));
        Alcotest.(check int) "a directory as input exits 2" 2 (cli ("run " ^ dir));
        (* A read failing mid-run is an I/O error. *)
        with_file ".alg" "let y = {1};\nquery y;\n" (fun p ->
            Alcotest.(check int) "a directory as --stats-file exits 6" 6
              (cli (Printf.sprintf "alg %s --plan cost --stats-file %s" p dir))))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The [alg] verb solves its system once: the query is answered from the
   solution already printed, not by a second solve. Output pinned byte
   for byte. *)
let triangle_stdout =
  "r = {[1, 1], [2, 1], [3, 2], [4, 2], [5, 3], [6, 3], [7, 4], [8, 4]}\n\
   s = {[1, 1], [2, 2], [3, 3], [4, 4], [5, 5], [6, 6], [7, 7], [8, 8]}\n\
   t = {[1, 100], [2, 200]}\n\
   q = {[[[1, 1], [1, 1]], [1, 100]], [[[2, 1], [1, 1]], [1, 100]], \
   [[[3, 2], [2, 2]], [2, 200]], [[[4, 2], [2, 2]], [2, 200]]}\n\
   query = {[[[1, 1], [1, 1]], [1, 100]], [[[2, 1], [1, 1]], [1, 100]], \
   [[[3, 2], [2, 2]], [2, 200]], [[[4, 2], [2, 2]], [2, 200]]}\n"

let test_alg_single_solve () =
  match find_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let program =
      match
        List.find_opt Sys.file_exists
          [ "../examples/programs/triangle.alg"; "examples/programs/triangle.alg" ]
      with
      | Some p -> p
      | None -> Alcotest.fail "examples/programs/triangle.alg not found"
    in
    let metrics = Filename.temp_file "recalg_metrics" ".prom" in
    let out = Filename.temp_file "recalg_alg" ".out" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun f -> try Sys.remove f with Sys_error _ -> ())
          [ metrics; metrics ^ ".json"; out ])
      (fun () ->
        let rc =
          Sys.command
            (Printf.sprintf "%s alg %s --metrics %s > %s 2>/dev/null"
               (Filename.quote exe) (Filename.quote program)
               (Filename.quote metrics) (Filename.quote out))
        in
        Alcotest.(check int) "exit 0" 0 rc;
        Alcotest.(check string) "stdout" triangle_stdout (read_file out);
        Alcotest.(check bool) "rec_eval span entered once" true
          (contains ~needle:"{\"span\": \"rec_eval\", \"calls\": 1,"
             (read_file (metrics ^ ".json"))))

let suite =
  [
    Alcotest.test_case "all verbs share --fuel/--trace/--profile" `Quick
      test_parity;
    Alcotest.test_case "resource exhaustion exit codes" `Quick test_exit_codes;
    Alcotest.test_case "alg solves once" `Quick test_alg_single_solve;
  ]
