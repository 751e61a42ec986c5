(* In-process probe for the benchmark runner, benchmark/run.py.

   Two modes, each run in a fresh process so every evaluation pays the
   same cold interning a CLI run pays:

     probe job KIND FILE OUT TRACED
       Evaluate one recalg verb job in-process — KIND is valid,
       wellfounded, stratified or alg — calling, in the verb's order, the
       same public functions the verb calls. The rendered output goes to
       OUT (after timing) for run.py to verify. Prints one JSON line.

     probe update DIR RUNGS SETUPS ROUNDS TRACED
       The update-mix sessions: for each chain size in RUNGS
       (comma-separated), load DIR/upd-N.dl into a stratified
       Datalog.Incremental session and a valid Datalog.Run.Live session
       (the calls the update verb makes), SETUPS times over, then apply
       the first ROUNDS batches of DIR/upd-N.batches round-robin over the
       rungs, timing each application. It times the host calibration
       kernel, in this process, after each round and around each
       set-up, to gauge the host's speed at that moment. Prints one JSON
       line per operation, then a summary.

   Both modes run the same code traced and untraced. The probe adds
   Obs spans only where the library has none: the job itself, parsing,
   planning and rendering. With TRACED = 1 it installs a memory sink
   that keeps the span events (name path, start, duration, id, parent)
   and turns on Obs.Metrics collection, then prints those events, the
   allocation per span path and the library's counters at the end. *)

open Recalg

(* The CLI's default --fuel for one-shot jobs. An update session spends
   one budget over its whole stream, so it runs as [recalg update --fuel]
   with a budget no stream here can exhaust. *)
let fuel_budget = 1_000_000
let session_fuel_budget = 1 lsl 50
let clock () = Unix.gettimeofday () *. 1000.
let tracing = ref false

(* --- trace output ---------------------------------------------------- *)

let counters =
  [
    "ground/atoms"; "ground/rules"; "ground/index_hit"; "ground/index_miss";
    "ground/scan"; "valid/round"; "wellfounded/round"; "seminaive/round";
    "seminaive/derived"; "rec_eval/round"; "join/probe"; "join/out"; "plan/reorder";
    "incr/dred"; "incr/recompute"; "incr/extend"; "incr/ground_pruned_rules";
  ]

(* The memory sink keeps span events only; counters are read from the
   metrics registry instead of being held one event per increment. *)
let span_sink () =
  let mem, events = Obs.Sink.memory () in
  let emit = function
    | (Obs.Event.Span_begin _ | Obs.Event.Span_end _) as e -> mem.Obs.Sink.emit e
    | Obs.Event.Count _ | Obs.Event.Gauge _ -> ()
  in
  ({ mem with Obs.Sink.emit }, events)

let json_trace buf events =
  let sn = Obs.Metrics.snapshot () in
  let v = Value.Stats.snapshot () and g = Gc.quick_stat () in
  Printf.bprintf buf {|"intern_hits":%d,"intern_misses":%d,"gc_major":%d,"counters":{|}
    v.Value.Stats.hits v.Value.Stats.misses g.Gc.major_collections;
  List.iteri
    (fun i c ->
      Printf.bprintf buf {|%s"%s":%d|}
        (if i > 0 then "," else "")
        c
        (Obs.Metrics.counter_total sn c))
    counters;
  Buffer.add_string buf {|},"alloc_words":{|};
  ignore
    (Obs.Metrics.fold_spans
       (fun path ~calls:_ ~wall_ms:_ ~fuel:_ ~alloc_words first ->
         Printf.bprintf buf {|%s"%s":%.0f|}
           (if first then "" else ",")
           (Obs.Event.escape path) alloc_words;
         false)
       sn true);
  Buffer.add_string buf {|},"events":[|};
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Obs.Event.to_json e))
    (events ());
  Buffer.add_string buf "]"

(* The reporting context the CLI's [with_reporting] installs — one
   domain, an installed sink (so library spans track their paths), the
   fuel budget as the ambient one — with the span sink and metrics
   collection in place of the null sink when tracing. Runs [f fuel] and
   returns its result and the trace fields to print (empty untraced). *)
let with_context budget f =
  Pool.set_domains 1;
  let fuel = Limits.of_int budget in
  let go sink () =
    Datalog.Run.with_obs sink (fun () -> Limits.with_active fuel (fun () -> f fuel))
  in
  if not !tracing then (go Obs.Sink.null (), "")
  else begin
    Obs.Metrics.reset ();
    let sink, events = span_sink () in
    let r = Obs.Metrics.with_collecting (go sink) in
    let buf = Buffer.create (1 lsl 16) in
    json_trace buf events;
    (r, "," ^ Buffer.contents buf)
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- one verb job ---------------------------------------------------- *)

let pp_interp ppf interp =
  List.iter
    (fun pred ->
      let show label tuples =
        List.iter
          (fun args ->
            Format.fprintf ppf "@[<h>%s%s(%a)@]@." label pred
              Fmt.(list ~sep:(any ", ") Value.pp)
              args)
          tuples
      in
      show "" (Datalog.Interp.true_tuples interp pred);
      show "undef: " (Datalog.Interp.undef_tuples interp pred))
    (Datalog.Interp.preds interp)

let load_datalog file =
  Obs.span "parser" @@ fun () ->
  match Datalog.Parser.parse (read_file file) with
  | Ok x -> x
  | Error msg -> failwith ("parse error: " ^ msg)

(* The run verb: Run.valid / wellfounded / stratified, then print. *)
let run_datalog kind file ppf fuel =
  let program, edb = load_datalog file in
  let order = `Syntactic in
  let render f = Obs.span "render" f in
  match kind with
  | "stratified" -> (
    match Datalog.Run.stratified ~fuel ~order program edb with
    | Ok db -> render (fun () -> Format.fprintf ppf "%a@." Datalog.Edb.pp db)
    | Error e -> failwith e)
  | "valid" ->
    let interp = Datalog.Run.valid ~fuel ~order program edb in
    render (fun () -> pp_interp ppf interp)
  | _ ->
    let interp = Datalog.Run.wellfounded ~fuel ~order program edb in
    render (fun () -> pp_interp ppf interp)

(* The alg verb: validate, plan (--plan cost), solve, print every
   constant, then answer the query with Rec_eval.eval — the verb's second
   solve, under its own span. The planner's rewrite hook runs inside the
   evaluator; it is wrapped so its time is attributed to the planner. *)
let run_alg file ppf fuel =
  let p, constants =
    Obs.span "parser" @@ fun () ->
    match Algebra.Parser.parse_program (read_file file) with
    | Error msg -> failwith ("parse error: " ^ msg)
    | Ok p -> (
      let defs = p.Algebra.Parser.defs in
      match Algebra.Defs.validate defs with
      | Error msg -> failwith msg
      | Ok () -> (p, Algebra.Defs.constant_names (Algebra.Defs.inline_all defs)))
  in
  let advice =
    Obs.span "planner" @@ fun () ->
    let stats = Plan.Stats.of_db Algebra.Db.empty in
    let a = Plan.Planner.advice (Plan.Planner.create ~stats Plan.Planner.Cost) in
    let rewrite e = Obs.span "planner" (fun () -> a.Algebra.Advice.rewrite e) in
    { a with Algebra.Advice.rewrite }
  in
  let defs = p.Algebra.Parser.defs and db = Algebra.Db.empty in
  let sol = Algebra.Rec_eval.solve ~fuel ~advice defs db in
  let print name v =
    Format.fprintf ppf "@[<h>%s = %a@]@." name Algebra.Rec_eval.pp_vset v
  in
  Obs.span "render" (fun () ->
      List.iter
        (fun name -> print name (Algebra.Rec_eval.constant sol name))
        constants);
  match p.Algebra.Parser.query with
  | Some q ->
    let v =
      Obs.span "rec_eval.query" (fun () ->
          Algebra.Rec_eval.eval ~fuel ~advice defs db q)
    in
    Obs.span "render" (fun () -> print "query" v)
  | None -> ()

let job_cmd kind file out =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  let ms, trace =
    with_context fuel_budget @@ fun fuel ->
    let t0 = clock () in
    Obs.span "job" (fun () ->
        if kind = "alg" then run_alg file ppf fuel else run_datalog kind file ppf fuel;
        Format.pp_print_flush ppf ());
    clock () -. t0
  in
  Out_channel.with_open_bin out (fun oc -> Buffer.output_buffer oc buf);
  Printf.printf {|{"job_ms":%.4f%s}|} ms trace;
  print_newline ()

(* --- update-mix ------------------------------------------------------ *)

(* The calibration kernel's size: about a sixth of a round's time on the
   128 rung. *)
let calibration_n = 20_000

let calibrate () =
  let t0 = clock () in
  ignore (Sys.opaque_identity (Calibration.run calibration_n));
  clock () -. t0

let digest_mod = 1_000_000_007
let digest_key = 1_000_003

(* Order-independent fingerprint of the [t] tuples, matched by
   reference.py: (count, sum of squares mod p). *)
let digest tuples =
  List.fold_left
    (fun (n, s) args ->
      match List.map Value.node args with
      | [ Value.Int a; Value.Int b ] ->
        let x = (a * digest_key) + b in
        (n + 1, (s + (x * x mod digest_mod)) mod digest_mod)
      | _ -> failwith "t tuple is not an int pair")
    (0, 0) tuples

(* One batch per line: a sign, then the edges as "a b" pairs. *)
let parse_batches path =
  let edge sign a b =
    (sign = "+", "e", [ Value.int (int_of_string a); Value.int (int_of_string b) ])
  in
  let rec facts sign = function
    | a :: b :: rest -> edge sign a b :: facts sign rest
    | [] -> []
    | [ _ ] -> failwith "odd batch line"
  in
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ "" ] -> None
         | sign :: nums -> Some (sign, Datalog.Edb.Update.of_facts (facts sign nums))
         | [] -> None)
  |> Array.of_list

type session = {
  n : int;
  batches : (string * Datalog.Edb.Update.t) array;
  strat : Datalog.Incremental.t;
  live : Datalog.Run.Live.t;
}

let start_session fuel dir n =
  let file suffix = Filename.concat dir (Printf.sprintf "upd-%d.%s" n suffix) in
  let program, edb = load_datalog (file "dl") in
  let strat =
    match Datalog.Incremental.init ~fuel program edb with
    | Ok t -> t
    | Error e -> failwith e
  in
  let live =
    Datalog.Run.Live.start ~fuel ~order:`Syntactic ~semantics:`Valid program edb
  in
  { n; batches = parse_batches (file "batches"); strat; live }

let count_undef interp =
  List.fold_left
    (fun acc p -> acc + List.length (Datalog.Interp.undef_tuples interp p))
    0 (Datalog.Interp.preds interp)

(* Every operation is one top-level "job" span, in the order of the
   operation lines, which is how run.py pairs them up. *)
let update_cmd dir rungs setups rounds =
  let out = Buffer.create (1 lsl 16) in
  let (setup_ms, setup_calibration_ms, calibration_ms), trace =
    with_context session_fuel_budget @@ fun fuel ->
    let setup_ms = ref [] and sessions = ref [] in
    let setup_calibration_ms = ref [] and calibration_ms = ref [] in
    for _ = 1 to setups do
      let before = calibrate () in
      sessions := [] (* unreachable before the next set is built *);
      let t0 = clock () in
      sessions := List.map (start_session fuel dir) rungs;
      setup_ms := (clock () -. t0) :: !setup_ms;
      setup_calibration_ms := ((before +. calibrate ()) /. 2.) :: !setup_calibration_ms
    done;
    Obs.Metrics.reset ();
    (* Time [apply] alone; read its result back outside the timed region. *)
    let op s session kind batch apply extract =
      let t0 = clock () in
      let r = Obs.span "job" apply in
      let ms = clock () -. t0 in
      let tuples, undef = extract r in
      let n, d = digest tuples in
      Printf.bprintf out
        {|{"rung":%d,"batch":%d,"session":"%s","kind":"%s","ms":%.4f,|}
        s.n batch session kind ms;
      Printf.bprintf out {|"count":%d,"digest":%d,"undef":%d}|} n d undef;
      Buffer.add_char out '\n'
    in
    for b = 0 to rounds - 1 do
      List.iter
        (fun s ->
          let kind, u = s.batches.(b) in
          op s "stratified" kind b
            (fun () -> Datalog.Incremental.update s.strat u)
            (fun db -> (Datalog.Edb.tuples db "t", 0));
          op s "valid" kind b
            (fun () -> Datalog.Run.Live.update s.live u)
            (fun interp -> (Datalog.Interp.true_tuples interp "t", count_undef interp)))
        !sessions;
      calibration_ms := calibrate () :: !calibration_ms
    done;
    (List.rev !setup_ms, List.rev !setup_calibration_ms, List.rev !calibration_ms)
  in
  print_string (Buffer.contents out);
  let floats xs = String.concat "," (List.map (Printf.sprintf "%.4f") xs) in
  Printf.printf {|{"setup_ms":[%s],"setup_calibration_ms":[%s],"calibration_ms":[%s]%s}|}
    (floats setup_ms) (floats setup_calibration_ms) (floats calibration_ms) trace;
  print_newline ()

let () =
  match Array.to_list Sys.argv with
  | [ _; "job"; kind; file; out; traced ] ->
    tracing := traced = "1";
    job_cmd kind file out
  | [ _; "update"; dir; rungs; setups; rounds; traced ] ->
    tracing := traced = "1";
    update_cmd dir
      (List.map int_of_string (String.split_on_char ',' rungs))
      (int_of_string setups) (int_of_string rounds)
  | _ ->
    prerr_endline "usage: probe job KIND FILE OUT TRACED";
    prerr_endline "       probe update DIR RUNGS SETUPS ROUNDS TRACED";
    exit 2
