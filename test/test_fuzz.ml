(* Malformed-input fuzzing: seeded byte and token mutations of every
   example program and of an update file. At library level the parsers
   must answer [Ok] or [Error] and never raise; at the command line a
   bounded, sequential sample of mutated inputs must exit only with the
   documented codes (README, "exit" table) — never 125, the uncaught
   exception code. Every mutation is a pure function of its seed, so a
   failure names the seed that replays it. *)

open Recalg

let read_file = Test_cli_args.read_file

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let examples ext =
  match List.find_opt Sys.file_exists [ "../examples/programs"; "examples/programs" ] with
  | None -> []
  | Some dir ->
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ext)
    |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

(* Updates against win_game.dl: signed facts, a comment, a batch break. *)
let updates = "% moves\n+move(c, d).\n-move(a, b).\n\n+move(b, e).\n-move(d, c).\n"

(* Tokens that steer a mutant into the lexers' and parsers' corners:
   delimiters, keywords, operators, out-of-range integers, an
   unterminated string, a comment. *)
let token_pool =
  [| "("; ")"; "{"; "}"; "["; "]"; "."; ","; ";"; ":-"; "not"; "="; "!="; "<="; "-"; "+";
     "x"; "let"; "query"; "ifp"; "sel"; "map"; "pi1"; "id"; "99999999999999999999999";
     "-99999999999999999999999"; "0"; "\""; "%"; "X"; "f(X)"; "s(s(z))"; "\n" |]

(* One to three edits: flip a byte, insert a printable byte, delete a
   short range, replace / double / drop a space-separated token, or
   insert a pool token. *)
let mutate seed src =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let pool () = token_pool.(int (Array.length token_pool)) in
  let splice s i ins k = String.sub s 0 i ^ ins ^ String.sub s (i + k) (String.length s - i - k) in
  let edit s =
    let n = String.length s in
    let i = int (n + 1) in
    match int 5 with
    | 0 when n > 0 -> splice s (min i (n - 1)) (String.make 1 (Char.chr (int 256))) 1
    | 1 -> splice s i (String.make 1 (Char.chr (32 + int 95))) 0
    | 2 -> splice s i "" (min (n - i) (1 + int 8))
    | 3 ->
      let ts = Array.of_list (String.split_on_char ' ' s) in
      let j = int (Array.length ts) in
      ts.(j) <- (match int 3 with 0 -> pool () | 1 -> ts.(j) ^ ts.(j) | _ -> "");
      String.concat " " (Array.to_list ts)
    | _ -> splice s i (pool ()) 0
  in
  let rec go k s = if k = 0 then s else go (k - 1) (edit s) in
  go (1 + int 3) src

(* --- library level: parse never raises --- *)

let never_raises name parse inputs () =
  List.iter
    (fun (file, src) ->
      for seed = 0 to Tgen.qcount 300 - 1 do
        let m = mutate seed src in
        try parse m
        with e ->
          Alcotest.failf "%s raised %s on %s mutated with seed %d:\n%s" name
            (Printexc.to_string e) file seed m
      done)
    inputs

let parse_updates m =
  List.iter
    (fun line ->
      match String.trim line with
      | "" -> ()
      | l when l.[0] = '%' -> ()
      | l when l.[0] = '+' || l.[0] = '-' ->
        ignore (Datalog.Parser.parse_rule (String.sub l 1 (String.length l - 1)))
      | l -> ignore (Datalog.Parser.parse_rule l))
    (String.split_on_char '\n' m)

(* --- command level: only documented exit codes --- *)

let documented = [ 0; 1; 2; 3; 4; 5; 6 ]

(* Each invocation is bounded in fuel, wall time and heap, so a mutant
   that turns a finite program infinite ends in a resource exit. *)
let limits = "--fuel 200000 --timeout 2000 --memory-limit 256"

let test_cli_exit_codes () =
  match (Test_cli_args.find_exe (), List.assoc_opt "win_game.dl" (examples ".dl")) with
  | None, _ | _, None -> Alcotest.skip ()
  | Some exe, Some win ->
    let tmp ext = Filename.temp_file "recalg_fuzz" ext in
    let dl = tmp ".dl" and alg = tmp ".alg" and upd = tmp ".upd" and err = tmp ".err" in
    let cli fmt =
      Printf.ksprintf (fun args -> Filename.quote exe ^ " " ^ args ^ " " ^ limits) fmt
    in
    let jobs =
      List.map
        (fun (f, src) -> (f, src, fun m -> write_file dl m; cli "run %s" (Filename.quote dl)))
        (examples ".dl")
      @ List.map
          (fun (f, src) ->
            (f, src, fun m -> write_file alg m; cli "alg %s --window 10" (Filename.quote alg)))
          (examples ".alg")
      @ [ ( "updates",
            updates,
            fun m ->
              write_file dl win;
              write_file upd m;
              cli "update %s %s -s valid" (Filename.quote dl) (Filename.quote upd) ) ]
    in
    (* At most ~50 invocations in all, spread over the inputs. *)
    let per_job = max 1 (Tgen.qcount 48 / List.length jobs) in
    let failures = ref [] in
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ dl; alg; upd; err ])
      (fun () ->
        List.iter
          (fun (file, src, command) ->
            for seed = 0 to per_job - 1 do
              let m = mutate seed src in
              let rc = Sys.command (command m ^ " >/dev/null 2>" ^ Filename.quote err) in
              if not (List.mem rc documented) then
                failures :=
                  Fmt.str "%s mutated with seed %d exited %d (%s):@.%s" file seed rc
                    (String.trim (read_file err)) m
                  :: !failures
            done)
          jobs);
    match List.rev !failures with
    | [] -> ()
    | first :: _ as all ->
      Alcotest.failf "%d mutants exited with undocumented codes; the first:@.%s"
        (List.length all) first

let suite =
  [
    Alcotest.test_case "Datalog parser never raises on mutants" `Quick
      (never_raises "Datalog.Parser.parse"
         (fun m -> ignore (Datalog.Parser.parse m))
         (examples ".dl"));
    Alcotest.test_case "algebra parser never raises on mutants" `Quick
      (never_raises "Algebra.Parser.parse_program"
         (fun m -> ignore (Algebra.Parser.parse_program m))
         (examples ".alg"));
    Alcotest.test_case "update parser never raises on mutants" `Quick
      (never_raises "Datalog.Parser.parse_rule" parse_updates [ ("updates", updates) ]);
    Alcotest.test_case "CLI exits only with documented codes" `Quick test_cli_exit_codes;
  ]
