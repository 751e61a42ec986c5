(* Arguments shared by the evaluating subcommands (run, alg, query):
   the fuel budget, the planner knobs, plus the three reporting
   switches. Declared once so every subcommand documents and parses
   them identically. *)

open Recalg
open Cmdliner

type t = {
  fuel : int;
  timeout_ms : int option;
  memory_limit_mb : int option;
  degrade : bool;
  stats : bool;
  trace : string option;
  profile : bool;
  domains : int;
  plan : Plan.Planner.mode;
  par_threshold : int;
  stats_file : string option;
  metrics : string option;
  live_replan : bool;
}

let default_domains () =
  match Sys.getenv_opt "RECALG_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> 1)
  | None -> 1

let default_par_threshold () =
  match Sys.getenv_opt "RECALG_PAR_THRESHOLD" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> n
    | Some _ | None -> !Algebra.Join.par_threshold)
  | None -> !Algebra.Join.par_threshold

let term =
  let fuel =
    (* A budget of zero or less cannot run a single step: a usage error,
       reported by the argument parser before evaluation starts. *)
    let positive =
      let parse s =
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok n
        | Some _ | None ->
          Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    Arg.(
      value & opt positive 1_000_000
      & info [ "fuel" ] ~doc:"Evaluation step budget (a positive integer).")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout" ] ~docv:"MS"
          ~doc:
            "Wall-clock deadline for the whole evaluation, in \
             milliseconds. Exceeding it aborts with a structured \
             resource error and exit code 4. Checked at fixpoint-round, \
             pool-task and join-partition boundaries and every 64th \
             fuel tick.")
  in
  let memory_limit_mb =
    Arg.(
      value
      & opt (some int) None
      & info [ "memory-limit" ] ~docv:"MB"
          ~doc:
            "Major-heap ceiling, in megabytes (measured via \
             $(b,Gc.quick_stat), so garbage not yet collected counts). \
             Exceeding it aborts with exit code 5.")
  in
  let degrade =
    Arg.(
      value & flag
      & info [ "degrade" ]
          ~doc:
            "Graceful degradation: when a resource limit trips inside a \
             monotone fixpoint (IFP, semi-naive), return the facts \
             derived so far — a sound under-approximation, explicitly \
             marked incomplete on stderr — instead of discarding them. \
             The exit code still reports the exhausted resource.")
  in
  let domains =
    Arg.(
      value
      & opt int (default_domains ())
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Evaluate with $(docv) worker domains: parallel hash joins, \
             per-rule semi-naive rounds and independent strata. Results \
             are byte-identical at every domain count; the default is \
             $(b,RECALG_DOMAINS) or 1 (sequential).")
  in
  let plan =
    let parse =
      Arg.enum
        [ ("off", Plan.Planner.Off);
          ("greedy", Plan.Planner.Greedy);
          ("cost", Plan.Planner.Cost) ]
    in
    Arg.(
      value & opt parse Plan.Planner.Off
      & info [ "plan" ] ~docv:"MODE"
          ~doc:
            "Query planning: $(b,off) evaluates expressions as written; \
             $(b,greedy) reorders multiway joins left-deep by estimated \
             intermediate size; $(b,cost) adds exact dynamic-programming \
             join-order search (up to 8 relations), semijoin reducers \
             under projections, and per-node strategy selection. Results \
             are byte-identical in every mode. On deductive subcommands, \
             any mode other than $(b,off) also orders rule-body literals \
             by envelope cardinality estimates.")
  in
  let par_threshold =
    Arg.(
      value
      & opt int (default_par_threshold ())
      & info [ "par-threshold" ] ~docv:"N"
          ~doc:
            "Minimum build+probe element count before a hash join fans \
             out over the worker pool (no effect at $(b,--domains) 1). \
             The default is $(b,RECALG_PAR_THRESHOLD) or 1024; results \
             are byte-identical at every threshold.")
  in
  let stats_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-file" ] ~docv:"FILE"
          ~doc:
            "Persist planner statistics across runs: load $(docv) before \
             evaluation (entries whose fingerprint contradicts the live \
             database are dropped), and rewrite it from the live \
             relations afterwards. Missing or unreadable files degrade \
             to no stats.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print value-interning statistics (live nodes, table \
             occupancy, hit/miss counts, lock contention) to stderr after \
             evaluation.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write an observability trace to $(docv) as JSON Lines: one \
             event per line for every span, counter and gauge the engines \
             report.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print a profile to stderr after evaluation: the retained \
             metrics registry (collected as for $(b,--metrics)) rendered \
             as the $(b,report) tables — top phases by wall time and by \
             fuel with p50/p90/p99 histogram latencies (bounded relative \
             error), counter distributions such as fixpoint iteration \
             counts, and gauges — preceded, with $(b,--plan), by the \
             chosen join orders.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Collect retained metrics (counters, gauges, latency \
             histograms, per-phase fuel and allocation attribution) \
             during the run and write a Prometheus text exposition to \
             $(docv) plus a JSON snapshot to $(docv).json. Collection \
             observes without steering: results and fuel are \
             byte-identical with or without it.")
  in
  let live_replan =
    Arg.(
      value & flag
      & info [ "live-replan" ]
          ~doc:
            "Arm mid-fixpoint re-planning: at fixpoint-round boundaries \
             the planner compares observed cardinalities against the \
             estimates the current plan was built on and re-plans on \
             drift. Requires a $(b,--plan) mode other than $(b,off); \
             results are byte-identical — only enumeration cost moves.")
  in
  let make fuel timeout_ms memory_limit_mb degrade stats trace profile domains
      plan par_threshold stats_file metrics live_replan =
    {
      fuel;
      timeout_ms;
      memory_limit_mb;
      degrade;
      stats;
      trace;
      profile;
      domains;
      plan;
      par_threshold;
      stats_file;
      metrics;
      live_replan;
    }
  in
  Term.(
    const make $ fuel $ timeout_ms $ memory_limit_mb $ degrade $ stats $ trace
    $ profile $ domains $ plan $ par_threshold $ stats_file $ metrics
    $ live_replan)

(* Plain fuel stays on the historical zero-overhead path; any governance
   knob upgrades the budget to a governed one. *)
let fuel_of t =
  match t.timeout_ms, t.memory_limit_mb, t.degrade with
  | None, None, false -> Limits.of_int t.fuel
  | _ ->
    Limits.governed ~fuel:t.fuel ?timeout_ms:t.timeout_ms
      ?memory_limit_mb:t.memory_limit_mb ~degrade:t.degrade ()

let order_of t : [ `Syntactic | `Stats ] =
  match t.plan with
  | Plan.Planner.Off -> `Syntactic
  | Plan.Planner.Greedy | Plan.Planner.Cost -> `Stats

(* The planner for an algebra evaluation over [db]: stats come from the
   persisted file when one is given (stale entries pruned against the
   live database) merged under a fresh sampling pass. *)
let planner_of t db =
  let sampled = Plan.Stats.of_db db in
  let stats =
    match t.stats_file with
    | None -> sampled
    | Some file -> (
      match Plan.Stats.load file with
      | None -> sampled
      | Some persisted ->
        Plan.Stats.merge (Plan.Stats.prune_stale db persisted) sampled)
  in
  Plan.Planner.create ~stats ~refresh:t.live_replan t.plan

(* Rewrite the stats file from the relations the run actually saw. *)
let save_stats t db =
  match t.stats_file with
  | None -> ()
  | Some file -> Plan.Stats.save file (Plan.Stats.of_db db)

let report_plan t planner =
  if t.profile && t.plan <> Plan.Planner.Off then
    Fmt.epr "%a" Plan.Planner.pp_reports (Plan.Planner.reports planner)

let report_stats t =
  if t.stats then Fmt.epr "%a@." Value.Stats.pp (Value.Stats.snapshot ())

(* Exit-code contract (documented in the README): parse errors exit 2
   before evaluation starts; an unsafe or untranslatable program and an
   injected fault exit 1; resource exhaustion maps fuel -> 3,
   deadline -> 4, and cancellation/memory -> 5; an I/O error (an output
   file that cannot be written, a file that cannot be read mid-run)
   exits 6. *)
let exit_code = function
  | Limits.Fuel -> 3
  | Limits.Deadline -> 4
  | Limits.Memory | Limits.Cancelled -> 5

let io_error_code = 6

(* Every file the run will write must land in an existing directory;
   checked before evaluation so a typo in --trace or --metrics costs
   nothing. I/O failures that only show up later (permissions, a full
   disk, a --stats-file that is a directory) are reported with the same
   code by [with_reporting]. *)
let check_output_paths t =
  let targets =
    List.filter_map Fun.id [ t.trace; t.metrics; t.stats_file ]
  in
  List.iter
    (fun path ->
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Fmt.epr "error: cannot write %s: no such directory %s@." path dir;
        exit io_error_code
      end)
    targets

(* Run [f] — which receives the budget built from [t] — with whatever
   reporting [t] asks for, on the pool size [t] requests (the workers
   are joined at process exit). A sink is always installed (null when
   --trace did not ask for one) so the obs layer tracks span paths and a
   resource error can say where it died. --metrics and --profile both
   read the retained registry: the former writes it to files, the
   latter renders it on stderr. The budget is installed as the ambient
   one, extending deadline/cancellation checks to pool tasks and join
   partitions. Resource errors are caught here, reported, and turned
   into the documented exit codes — after the trace file (written via
   tmp + rename) has been completed, so an aborted run still leaves a
   whole, readable trace. *)
let with_reporting t f =
  check_output_paths t;
  Pool.set_domains t.domains;
  Algebra.Join.par_threshold := t.par_threshold;
  let fuel = fuel_of t in
  let code = ref 0 in
  let io_error msg =
    Fmt.epr "error: I/O error: %s@." msg;
    code := io_error_code
  in
  let go oc =
    let sink = Option.fold ~none:Obs.Sink.null ~some:Obs.Sink.jsonl oc in
    Datalog.Run.with_obs sink @@ fun () ->
    try Limits.with_active fuel (fun () -> f fuel) with
    | (Limits.Diverged _ | Limits.Resource_exhausted _) as e ->
      Fmt.epr "error: %s@."
        (Option.value (Limits.describe e) ~default:(Printexc.to_string e));
      code :=
        (match e with
        | Limits.Resource_exhausted { kind; _ } -> exit_code kind
        | _ -> exit_code Limits.Fuel)
    | Datalog.Relstore.Unsafe msg ->
      (* A rule body no literal ordering can evaluate: the same report
         and exit code as the stratified path's safety check. *)
      Fmt.epr "error: unsafe program: %s@." msg;
      code := 1
    | Translate.Datalog_to_alg.Untranslatable msg ->
      Fmt.epr "error: untranslatable program: %s@." msg;
      code := 1
    | Algebra.Eval.Undefined_relation name
    | Algebra.Rec_eval.Undefined_relation name
    | Algebra.Incremental.Undefined_relation name ->
      Fmt.epr "error: invalid program: undefined relation %s@." name;
      code := 1
    | Faultinj.Injected { site; hit } ->
      (* Chaos runs (RECALG_FAULTS) die cleanly like any other abort:
         state already rolled back by the engines, trace file completed
         below, generic failure exit. *)
      Fmt.epr "error: injected fault at %s (hit %d)@." site hit;
      code := 1
    | Sys_error msg -> io_error msg
  in
  (* Opening and renaming the trace and metrics files happen outside
     [go]. *)
  let write path contents =
    try Safe_io.with_file path contents with Sys_error msg -> io_error msg
  in
  let collect = t.metrics <> None || t.profile in
  if collect then begin
    Obs.Metrics.reset ();
    Obs.Metrics.set_collecting true
  end;
  (match t.trace with
  | None -> go None
  | Some path -> write path (fun oc -> go (Some oc)));
  (* Metrics files are written after the run (and after the trace file
     is complete), from a quiesced registry, via the same tmp + rename
     path as every other artifact — an aborted run still leaves whole
     files. *)
  if collect then begin
    Obs.Metrics.set_collecting false;
    let sn = Obs.Metrics.snapshot () in
    Option.iter
      (fun path ->
        write path (fun oc ->
            output_string oc (Obs.Metrics.to_prometheus sn));
        write (path ^ ".json") (fun oc ->
            output_string oc (Obs.Metrics.to_json sn)))
      t.metrics;
    if t.profile then Fmt.epr "%a@." (Obs.Metrics.pp_report ?top:None) sn
  end;
  report_stats t;
  (match Limits.degraded fuel with
  | Some (kind, what) ->
    (* [what] is the full exhaustion message, engine context included. *)
    Fmt.epr
      "warning: incomplete result (%s) — printed facts are a sound \
       under-approximation@."
      what;
    code := exit_code kind
  | None -> ());
  if !code <> 0 then exit !code
