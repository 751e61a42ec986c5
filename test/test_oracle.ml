(* The differential oracle: one harness for every claim that two engines
   agree. The paper's equivalences form a theorem table — (engine A,
   engine B, relation, instance class, reference) — and every
   optimisation switch forms a knob table of (base, variant) settings.
   Each engine is crossed with every knob that applies to it, on every
   instance class it runs on, and must return the same result and spend
   the same fuel under the variant as under the base (the incremental
   knob compares the result after every batch; fuel is not comparable
   there).

   Every run gets the budget of [Limits.default], which every generated
   instance fits in with room to spare, so a run that diverges fails the
   case, as does a theorem row where either side refuses: every instance
   drawn for a row is compared.

   Each alcotest case checks some rows and some (knob, engine, class)
   cells over one batch of random instances. Rows and cells that guard
   a subsystem report under that subsystem's suite, with the name its
   pairwise property had there; the rest run as the [oracle] suite, one
   case per row and one per engine, so every cell is checked exactly
   once. A failure prints the instance (program or query, base data,
   update batches), the row or knob, the knob vector and both
   outcomes. *)

open Recalg
module Planner = Plan.Planner
module Advice = Algebra.Advice
module Rec_eval = Algebra.Rec_eval
module AI = Algebra.Incremental
module Edb = Datalog.Edb
module Interp = Datalog.Interp
module Run = Datalog.Run

(* --- Knob vectors --- *)

type replay =
  | Scratch  (** evaluate every state of the update sequence afresh *)
  | Maintained  (** initialise on the base data, then apply each batch *)

type cfg = {
  domains : int;
  metrics : bool;
  trace : bool;
  plan : Planner.mode;  (** Datalog engines: any mode but [Off] orders by [`Stats] *)
  rewrite : bool;  (** the planner as a whole-expression rewrite, not advice *)
  governed : bool;  (** a governed budget whose ceilings never trip *)
  strategy : Advice.strategy;
  join : Algebra.Join.mode;
  replay : replay option;  (** [None]: the base data only *)
  window : bool;  (** Rec_eval intersects with a window covering the universe *)
}

let default =
  { domains = 1; metrics = false; trace = false; plan = Planner.Off; rewrite = false;
    governed = false; strategy = Advice.Seminaive; join = Algebra.Join.Fused;
    replay = None; window = false }

let pp_cfg ppf c =
  let flag b s = if b then [ s ] else [] in
  let flags =
    flag (c.domains <> 1) (Fmt.str "domains=%d" c.domains)
    @ flag c.metrics "metrics=on" @ flag c.trace "trace=on"
    @ flag (c.plan <> Planner.Off) ("plan=" ^ Planner.mode_to_string c.plan)
    @ flag c.rewrite "(as rewrite)" @ flag c.governed "fuel=governed"
    @ flag (c.strategy = Advice.Naive) "strategy=naive"
    @ flag (c.join = Algebra.Join.Unfused) "join=unfused"
    @ flag (c.replay = Some Scratch) "replay=scratch"
    @ flag (c.replay = Some Maintained) "replay=incremental"
    @ flag c.window "window=universe"
  in
  Fmt.string ppf (if flags = [] then "default" else String.concat " " flags)

(* Metrics collection and a trace sink around one run; the pool is sized
   by the caller ([case]). *)
let with_env cfg f =
  let f =
    if not cfg.metrics then f
    else fun () ->
      Obs.Metrics.reset ();
      Fun.protect ~finally:Obs.Metrics.reset (fun () -> Obs.Metrics.with_collecting f)
  in
  if not cfg.trace then f ()
  else
    let sink, events = Obs.Sink.memory () in
    let r = Obs.with_sink sink f in
    if events () = [] then failwith "the trace sink saw no events";
    r

(* The steps of [Limits.default]. *)
let steps = 1_000_000

let budget cfg =
  if cfg.governed then
    Limits.governed ~fuel:steps ~timeout_ms:3_600_000 ~memory_limit_mb:1_048_576 ()
  else Limits.of_int steps

let order cfg = if cfg.plan = Planner.Off then `Syntactic else `Stats
let planner cfg db = Planner.create ~stats:(Plan.Stats.of_db db) cfg.plan

(* Every symbol the generators use, and every pair of them: a window
   that covers every value the Rec_eval instances can produce. *)
let universe =
  let syms = List.map Value.sym Tgen.node_names in
  Value.set (syms @ List.concat_map (fun a -> List.map (Value.pair a) syms) syms)

let solve cfg ~fuel ~advice defs db =
  Rec_eval.solve ~fuel ~advice ?window:(if cfg.window then Some universe else None) defs db

let advice cfg db =
  let a =
    if cfg.plan = Planner.Off || cfg.rewrite then Advice.none
    else Planner.advice (planner cfg db)
  in
  { a with strategy = cfg.strategy; join = cfg.join }

(* --- Outcomes --- *)

(* A model names each predicate, algebra constant or the query ("?")
   with its certain and possible sets; two-valued results have
   low = high. *)
type model = (string * Rec_eval.vset) list

type result =
  | Model of model
  | Models of model list  (** stable models *)
  | Failed of string  (** a documented refusal, e.g. an unstratified program *)

type outcome = { states : result list; fuel : int option }

let vset_equal (a : Rec_eval.vset) (b : Rec_eval.vset) =
  Value.equal a.low b.low && Value.equal a.high b.high

let model_equal = List.equal (fun (n, v) (m, w) -> n = m && vset_equal v w)

let result_equal a b =
  match (a, b) with
  | Model a, Model b -> model_equal a b
  | Models a, Models b -> List.equal model_equal a b
  | Failed a, Failed b -> a = b
  | (Model _ | Models _ | Failed _), _ -> false

let pp_model =
  Fmt.(list ~sep:sp (fun ppf (n, v) -> Fmt.pf ppf "%s=%a" n Rec_eval.pp_vset v))

let pp_result ppf = function
  | Model m -> pp_model ppf m
  | Models ms -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any " | ") pp_model) ms
  | Failed m -> Fmt.pf ppf "failed: %s" m

let pp_outcome ppf o =
  Fmt.pf ppf "%a (fuel left %a)" Fmt.(list ~sep:(any " ;; ") pp_result) o.states
    Fmt.(option ~none:(any "-") int) o.fuel

let exact v = { Rec_eval.low = v; high = v }
let tuples ts = Value.set (List.map Value.tuple ts)
let sorted l = List.sort_uniq compare l

let of_interp preds i =
  List.map
    (fun p ->
      let t = Interp.true_tuples i p in
      (p, { Rec_eval.low = tuples t; high = tuples (t @ Interp.undef_tuples i p) }))
    preds

let of_edb preds db = List.map (fun p -> (p, exact (tuples (Edb.tuples db p)))) preds
let idb program = sorted (Datalog.Program.idb_preds program)

(* --- Engines --- *)

type cap =
  | Order  (** Datalog body-literal ordering *)
  | Advice  (** algebra evaluator configuration: plan, strategy, join *)
  | Rewrite  (** the planner's whole-expression rewrite *)
  | Replay  (** an incremental engine maintains the result under updates *)
  | Window  (** the alternating fixpoint takes a window *)

type engine = {
  name : string;
  samples : int;  (** instances per class when crossed with knobs in [oracle] *)
  caps : cap list;
  on : Tgen.cls list;  (** the classes it is exercised on *)
  eval : cfg -> Limits.fuel -> Tgen.instance -> result;
  maintain : cfg -> Limits.fuel -> Tgen.instance -> result list;
      (** with [Replay]: one result per state, base data then each batch *)
}

let engine ?(samples = 30) ?(caps = [])
    ?(maintain = fun _ _ _ -> invalid_arg "no incremental path") name on eval =
  { name; samples; caps; on; eval; maintain }

(* Datalog engines read the program, base facts and updates, algebra
   engines the definitions, database, query and updates. *)
let dl f cfg fuel = function
  | Tgen.Dl { program; edb; updates } -> f cfg fuel program edb updates
  | Tgen.Alg _ -> invalid_arg "expected a Datalog instance"

let alg f cfg fuel = function
  | Tgen.Alg { defs; db; query; updates } -> f cfg fuel defs db query updates
  | Tgen.Dl _ -> invalid_arg "expected an algebra instance"

(* Initialise on the base data, then apply each batch: one reading per
   state. *)
let replay ~init ~update ~read updates =
  let t = init () in
  let first = read t in
  first :: List.map (fun u -> update t u; read t) updates

(* The grounding-based semantics, maintained by Run.Live. *)
let grounded name on run semantics =
  engine name on ~caps:[ Order; Replay ]
    (dl (fun cfg fuel program edb _ ->
         Model (of_interp (idb program) (run ~fuel ~order:(order cfg) program edb))))
    ~maintain:
      (dl (fun cfg fuel program edb ->
           replay
             ~init:(fun () -> Run.Live.start ~fuel ~order:(order cfg) ~semantics program edb)
             ~update:(fun t u -> ignore (Run.Live.update t u))
             ~read:(fun t -> Model (of_interp (idb program) (Run.Live.interp t)))))

let valid =
  grounded "valid" Tgen.[ Dl_any; Dl_stratified; Dl_positive; Dl_win ]
    (fun ~fuel ~order -> Run.valid ~fuel ~order) `Valid

let wellfounded =
  grounded "wellfounded" Tgen.[ Dl_any; Dl_stratified ]
    (fun ~fuel ~order -> Run.wellfounded ~fuel ~order) `Wellfounded

let inflationary =
  grounded "inflationary" Tgen.[ Dl_positive ]
    (fun ~fuel ~order -> Run.inflationary ~fuel ~order) `Inflationary

let stable =
  engine "stable" Tgen.[ Dl_any ] ~caps:[ Order ]
    (dl (fun cfg fuel program edb _ ->
         Models
           (List.map (of_interp (idb program))
              (Run.stable ~fuel ~order:(order cfg) program edb))))

(* Stratified evaluation, maintained by Datalog.Incremental. *)
let stratified =
  let read program = function Ok db -> Model (of_edb (idb program) db) | Error m -> Failed m in
  engine "stratified" Tgen.[ Dl_any; Dl_stratified ] ~caps:[ Order; Replay ]
    (dl (fun cfg fuel program edb _ ->
         read program (Run.stratified ~fuel ~order:(order cfg) program edb)))
    ~maintain:
      (dl (fun _ fuel program edb updates ->
           match Datalog.Incremental.init ~fuel program edb with
           | Error m -> List.init (1 + List.length updates) (fun _ -> Failed m)
           | Ok t ->
             replay ~init:(fun () -> t)
               ~update:(fun t u -> ignore (Datalog.Incremental.update t u))
               ~read:(fun t -> read program (Ok (Datalog.Incremental.result t)))
               updates))

(* The relational engines on the raw rule set. *)
let relational name on run =
  engine name on ~caps:[ Order ]
    (dl (fun cfg fuel program base _ ->
         Model
           (of_edb (idb program)
              (run ~fuel ~order:(order cfg) program ~base program.Datalog.Program.rules))))

let naive =
  relational "naive" Tgen.[ Dl_positive ] (fun ~fuel ~order -> Datalog.Seminaive.naive ~fuel ~order)

let seminaive =
  relational "seminaive" Tgen.[ Dl_positive; Dl_any ] (fun ~fuel ~order ->
      Datalog.Seminaive.seminaive ~fuel ~order)

let every_pred program edb = sorted (Datalog.Program.all_preds program @ Edb.preds edb)

(* The grounder's rule heads, and the positive envelope they must equal:
   the EDB plus the naive least fixpoint of the rules with their negative
   literals dropped. *)
let envelope =
  engine "grounder heads" Tgen.[ Dl_any ] ~caps:[ Order ]
    (dl (fun cfg fuel program edb _ ->
         let pg = Datalog.Grounder.ground ~fuel ~order:(order cfg) program edb in
         let heads =
           Array.fold_left
             (fun db (r : Datalog.Propgm.rule) ->
               let pred, tup = Datalog.Propgm.fact_of_id pg r.head in
               Edb.add pred tup db)
             Edb.empty pg.Datalog.Propgm.rules
         in
         Model (of_edb (every_pred program edb) heads)))

let positive_envelope =
  engine "positive envelope" Tgen.[ Dl_any ] ~caps:[ Order ]
    (dl (fun cfg fuel program edb _ ->
         let positive =
           List.map
             (fun (r : Datalog.Rule.t) ->
               Datalog.Rule.make r.head
                 (List.filter (function Datalog.Literal.Neg _ -> false | _ -> true) r.body))
             program.Datalog.Program.rules
         in
         let derived =
           Datalog.Seminaive.naive ~fuel ~order:(order cfg)
             (Datalog.Program.make ~builtins:program.Datalog.Program.builtins positive)
             ~base:edb positive
         in
         Model (of_edb (every_pred program edb) (Edb.union edb derived))))

(* Thm 6.2 / Prop 6.1: the algebra= image of a safe program, solved by
   the alternating fixpoint. *)
let datalog_to_alg =
  engine "Datalog_to_alg+Rec_eval" Tgen.[ Dl_any; Dl_win ] ~caps:[ Advice ]
    (dl (fun cfg fuel program edb _ ->
         let tr = Translate.Datalog_to_alg.translate program edb in
         let sol = Rec_eval.solve ~fuel ~advice:(advice cfg tr.db) tr.defs tr.db in
         Model
           (List.map
              (fun p ->
                let certain, possible = Translate.Datalog_to_alg.pred_tuples sol tr p in
                (p, { Rec_eval.low = tuples certain; high = tuples possible }))
              (idb program))))

(* Thm 4.3: the positive IFP-algebra image of a stratified program,
   materialised level by level ([eval_all]) or one predicate at a time
   ([eval_pred]). *)
let stratified_to_ifp name eval =
  engine name Tgen.[ Dl_stratified ] ~caps:[ Advice ]
    (dl (fun cfg fuel program edb _ ->
         match Translate.Stratified_to_ifp.translate program edb with
         | Error m -> Failed m
         | Ok t ->
           let got = eval ~fuel ~advice:(advice cfg t.db) t in
           Model
             (List.map
                (fun p ->
                  (p, exact (Option.value (List.assoc_opt p got) ~default:Value.empty_set)))
                (idb program))))

let t43_all =
  stratified_to_ifp "Stratified_to_ifp.eval_all" (fun ~fuel ~advice t ->
      Translate.Stratified_to_ifp.eval_all ~fuel ~advice t)

let t43_pred =
  stratified_to_ifp "Stratified_to_ifp.eval_pred" (fun ~fuel ~advice t ->
      List.map
        (fun (p, _) -> (p, tuples (Translate.Stratified_to_ifp.eval_pred ~fuel ~advice t p)))
        t.pred_constants)

(* The two-valued evaluator, maintained by Algebra.Incremental. *)
let alg_eval =
  engine "Eval" Tgen.[ Alg_ifp; Alg_ifp_positive; Alg_ifp_small; Alg_expr; Alg_region ]
    ~caps:[ Advice; Rewrite; Replay ]
    (alg (fun cfg fuel defs db query _ ->
         let query = if cfg.rewrite then Planner.rewrite (planner cfg db) query else query in
         Model [ ("?", exact (Algebra.Eval.eval ~fuel ~advice:(advice cfg db) defs db query)) ]))
    ~maintain:
      (alg (fun _ fuel defs db query ->
           replay
             ~init:(fun () -> AI.init ~fuel defs db query)
             ~update:(fun t u -> ignore (AI.update t u))
             ~read:(fun t -> Model [ ("?", exact (AI.value t)) ])))

(* The alternating fixpoint: the bounds of every defined constant;
   maintained by Algebra.Incremental.Rec. *)
let rec_eval =
  let read names constant = Model (List.map (fun c -> (c, constant c)) (sorted names)) in
  engine "Rec_eval" Tgen.[ Alg_rec; Alg_win ] ~caps:[ Advice; Replay; Window ]
    (alg (fun cfg fuel defs db _ _ ->
         let sol = solve cfg ~fuel ~advice:(advice cfg db) defs db in
         read (Algebra.Defs.constant_names defs) (Rec_eval.constant sol)))
    ~maintain:
      (alg (fun _ fuel defs db _ ->
           replay
             ~init:(fun () -> AI.Rec.init ~fuel defs db)
             ~update:AI.Rec.update
             ~read:(fun t -> read (AI.Rec.constant_names t) (AI.Rec.constant t))))

(* Prop 3.4: IFP x. body read as the recursive constant c = body[x := c]. *)
let rec_of_ifp =
  engine "Rec_eval of S = exp(S)" Tgen.[ Alg_ifp_positive ] ~caps:[ Advice; Window ]
    (alg (fun cfg fuel _ db query _ ->
         match query with
         | Algebra.Expr.Ifp (x, body) ->
           let c = Algebra.Expr.map_rels (fun n -> Algebra.Expr.rel (if n = x then "c" else n)) body in
           let defs = Algebra.Defs.make [ Algebra.Defs.constant "c" c ] in
           let sol = solve cfg ~fuel ~advice:(advice cfg db) defs db in
           Model [ ("?", Rec_eval.constant sol "c") ]
         | _ -> invalid_arg "expected an IFP query"))

(* Prop 5.4: the deductive image of an algebra= query under the valid
   semantics; reads back the query and every defined constant. *)
let alg_to_datalog =
  engine "Alg_to_datalog+valid" Tgen.[ Alg_expr; Alg_win; Alg_rec ] ~caps:[ Order ]
    (alg (fun cfg fuel defs db query _ ->
         let tr = Translate.Alg_to_datalog.translate defs db query in
         let i = Run.valid ~fuel ~order:(order cfg) tr.program tr.edb in
         let read p = Translate.Alg_to_datalog.set_of_interp i p in
         Model
           (List.sort compare
              (("?", read tr.query_pred) :: List.map (fun (c, p) -> (c, read p)) tr.constant_preds))))

(* Thm 3.5: the IFP-free algebra= program that Ifp_elim builds. Solving
   it is by far the slowest run in the table, so it takes the global
   knobs only, on few samples; the evaluator knobs (plan, strategy,
   join) are crossed with Rec_eval on its own classes. *)
let ifp_elim =
  engine "Ifp_elim+Rec_eval" Tgen.[ Alg_ifp_small ] ~samples:4
    (alg (fun _ fuel defs db query _ ->
         let elim = Translate.Ifp_elim.eliminate ~fuel defs db query in
         Model [ ("?", Translate.Ifp_elim.query_value ~fuel elim) ]))

let engines =
  [ valid; wellfounded; inflationary; stable; stratified; naive; seminaive; envelope;
    positive_envelope; datalog_to_alg; t43_all; t43_pred; alg_eval; rec_eval; rec_of_ifp;
    alg_to_datalog; ifp_elim ]

(* Every state of an instance: its base data, then after each batch. *)
let states =
  let rec scan apply x = function [] -> [ x ] | u :: us -> x :: scan apply (apply u x) us in
  function
  | Tgen.Dl d ->
    List.map (fun edb -> Tgen.Dl { d with edb; updates = [] }) (scan Edb.Update.apply d.edb d.updates)
  | Tgen.Alg a ->
    List.map (fun db -> Tgen.Alg { a with db; updates = [] }) (scan AI.Update.apply a.db a.updates)

(* Run one engine under one knob vector. Documented refusals are
   outcomes; anything else, divergence included, escapes to the failure
   report. *)
let run cfg e inst =
  let guard f = try f () with Datalog.Relstore.Unsafe m -> Failed ("unsafe: " ^ m) in
  with_env cfg @@ fun () ->
  match cfg.replay with
  | None ->
    let fuel = budget cfg in
    let r = guard (fun () -> e.eval cfg fuel inst) in
    { states = [ r ]; fuel = Limits.remaining fuel }
  | Some Scratch ->
    { states = List.map (fun s -> guard (fun () -> e.eval cfg (budget cfg) s)) (states inst);
      fuel = None }
  | Some Maintained -> { states = e.maintain cfg (budget cfg) inst; fuel = None }

(* --- The theorem table --- *)

type relation =
  | Equal  (** the same bounds for every name both report *)
  | Equal_total  (** [Equal], and A is two-valued *)
  | Refines  (** A's bounds lie within B's, for every name both report *)
  | Extends  (** every model of B lies between A's bounds *)

type row = {
  row : string;
  a : engine;
  b : engine;
  rel : relation;
  cls : Tgen.cls;
  ref_ : string;  (** where the paper states it *)
  home : (string * int) option;
      (** the suite and count of the case it reports as, under its own
          name; [None]: a case of the [oracle] suite *)
}

let theorems =
  let row ?(rel = Equal) ?home row a b cls ref_ = { row; a; b; rel; cls; ref_; home } in
  Tgen.
    [ row "valid = well-founded on random programs" valid wellfounded Dl_any "Sec. 2.2, Sec. 7"
        ~home:("datalog", 150);
      row "stable models extend the well-founded model" wellfounded stable Dl_any "Sec. 2.2"
        ~rel:Extends ~home:("datalog", 80);
      row "valid model total on stratified random programs" valid wellfounded Dl_stratified
        "Sec. 2.2" ~rel:Equal_total ~home:("datalog", 150);
      row "stratified seminaive = valid engine on stratified programs" stratified valid
        Dl_stratified "Sec. 2.2" ~home:("seminaive", 60);
      row "valid = inflationary = seminaive without negation" valid inflationary Dl_positive
        "Sec. 2.2, Sec. 5" ~home:("datalog", 150);
      row "naive = seminaive on random positive programs" naive seminaive Dl_positive "Sec. 4"
        ~home:("seminaive", 80);
      row "grounder heads = EDB + naive positive envelope" envelope positive_envelope Dl_any
        "Sec. 2.1" ~home:("program", 60);
      row "Thm 6.2: win round trip on random graphs" valid datalog_to_alg Dl_win
        "Prop 6.1, Thm 6.2" ~home:("translate", 60);
      row "Thm 6.2: random safe programs -> algebra= agree" valid datalog_to_alg Dl_any
        "Prop 6.1, Thm 6.2" ~home:("translate", 60);
      row "Thm 4.3: stratified -> positive IFP-algebra on random programs" stratified t43_all
        Dl_stratified "Thm 4.3" ~home:("translate", 60);
      row "Thm 4.3: eval_all = eval_pred" t43_all t43_pred Dl_stratified "Thm 4.3";
      row "Prop 5.4: algebra= -> datalog agree on random graphs" rec_eval alg_to_datalog Alg_win
        "Prop 5.4" ~home:("translate", 40);
      row "Prop 5.4 on random algebra expressions" alg_eval alg_to_datalog Alg_expr "Prop 5.4"
        ~home:("translate", 150);
      (* Rec_eval decides S = A - (A - S) as S = A & S (least: empty);
         the deductive image leaves the double-negation cycle undefined. *)
      row "Prop 5.4 on random algebra= systems" rec_eval alg_to_datalog Alg_rec "Prop 5.4"
        ~rel:Refines;
      (* Positive bodies only: once the body holds a difference, Ifp_elim
         disagrees with Eval (an open fault). *)
      row "Thm 3.5: IFP elimination on random graphs" alg_eval ifp_elim Alg_ifp_small "Thm 3.5"
        ~home:("translate", 15);
      row "Prop 3.4: monotone S=exp(S) equals IFP_exp" alg_eval rec_of_ifp Alg_ifp_positive
        "Prop 3.4" ~home:("algebra", 60) ]

let holds rel a b =
  let shared a b = List.filter (fun (n, _) -> List.mem_assoc n b) a in
  let within (v : Rec_eval.vset) (w : Rec_eval.vset) =
    Value.subset w.low v.low && Value.subset v.high w.high
  in
  match (rel, a, b) with
  | (Equal | Equal_total | Refines), Model a, Model b ->
    let common = shared a b in
    common <> []
    && List.for_all
         (fun (n, v) -> (if rel = Refines then within else vset_equal) v (List.assoc n b))
         common
    && (rel <> Equal_total || List.for_all (fun (_, (v : Rec_eval.vset)) -> Value.equal v.low v.high) a)
  | Extends, Model a, Models ms ->
    List.for_all (fun m -> List.for_all (fun (n, v) -> within (List.assoc n m) v) a) ms
  | _ -> false

(* --- The knob table --- *)

type knob = { knob : string; base : cfg; variant : cfg; applies : engine -> bool }

let has cap e = List.mem cap e.caps
let d4 = { default with domains = 4 }
let naive_cfg = { default with strategy = Advice.Naive }

let knob ?(base = default) ?(applies = fun _ -> true) knob variant =
  { knob; base; variant; applies }

let domains_4 = knob "domains 4" d4
let metrics = knob "metrics" { default with metrics = true }
let metrics_d4 = knob "metrics at domains 4" ~base:d4 { d4 with metrics = true }
let trace = knob "trace" { default with trace = true }
let trace_d4 = knob "trace at domains 4" ~base:d4 { d4 with trace = true }
let governed = knob "governed" { default with governed = true }
let plan_greedy = knob "plan greedy" ~applies:(has Advice) { default with plan = Planner.Greedy }

let plan_cost =
  knob "plan cost" ~applies:(fun e -> has Advice e || has Order e) { default with plan = Planner.Cost }

let plan_cost_naive =
  knob "plan cost, naive" ~base:naive_cfg ~applies:(has Advice) { naive_cfg with plan = Planner.Cost }

let rewrite_greedy =
  knob "plan rewrite greedy" ~applies:(has Rewrite) { default with plan = Planner.Greedy; rewrite = true }

let rewrite_cost =
  knob "plan rewrite cost" ~applies:(has Rewrite) { default with plan = Planner.Cost; rewrite = true }

let strategy_naive = knob "strategy naive" ~applies:(has Advice) naive_cfg
let unfused = knob "join unfused" ~applies:(has Advice) { default with join = Algebra.Join.Unfused }

let unfused_naive =
  knob "join unfused, naive" ~base:naive_cfg ~applies:(has Advice)
    { naive_cfg with join = Algebra.Join.Unfused }

let window = knob "window" ~applies:(has Window) { default with window = true }

let incremental =
  knob "incremental" ~applies:(has Replay) ~base:{ default with replay = Some Scratch }
    { default with replay = Some Maintained }

let knobs =
  [ domains_4; metrics; metrics_d4; trace; trace_d4; governed; plan_greedy; plan_cost;
    plan_cost_naive; rewrite_greedy; rewrite_cost; strategy_naive; unfused; unfused_naive;
    window; incremental ]

(* Every (knob, engine, class) cell of the matrix. *)
type cell = knob * engine * Tgen.cls

let cells : cell list =
  List.concat_map
    (fun k -> List.concat_map (fun e -> if k.applies e then List.map (fun c -> (k, e, c)) e.on else []) engines)
    knobs

let () =
  List.iter
    (fun r ->
      if not (List.mem r.cls r.a.on && List.mem r.cls r.b.on) then
        invalid_arg ("theorem row on a class its engines do not run on: " ^ r.row))
    theorems

(* --- Checking --- *)

let failf inst fmt =
  Fmt.kstr (fun msg -> QCheck.Test.fail_reportf "@[<v>%a@,%s@]" Tgen.pp_instance inst msg) fmt

(* The runs one instance needs: both engines of each row at the default
   vector, and base and variant of each cell. *)
let needed ~rows ~cells cls =
  sorted
    (List.concat_map
       (fun r -> if r.cls = cls then [ (default, r.a.name); (default, r.b.name) ] else [])
       rows
    @ List.concat_map
        (fun ((k, e, c) : cell) -> if c = cls then [ (k.base, e.name); (k.variant, e.name) ] else [])
        cells)

let check ~rows ~cells (cls, inst) outcome =
  List.iter
    (fun r ->
      if r.cls = cls then
        match ((outcome default r.a).states, (outcome default r.b).states) with
        | [ ra ], [ rb ] ->
          if not (holds r.rel ra rb) then
            failf inst "@[<v>theorem row: %s (%s)@,%s: %a@,%s: %a@]" r.row r.ref_ r.a.name
              pp_result ra r.b.name pp_result rb
        | _ -> assert false)
    rows;
  List.iter
    (fun ((k, e, c) : cell) ->
      if c = cls then
        let b = outcome k.base e and v = outcome k.variant e in
        if not (List.equal result_equal b.states v.states && b.fuel = v.fuel) then
          failf inst "@[<v>knob: %s on %s@,base [%a]: %a@,variant [%a]: %a@]" k.knob e.name
            pp_cfg k.base pp_outcome b pp_cfg k.variant pp_outcome v)
    cells

(* One alcotest case: rows and cells over a batch of instances, one of
   every class they touch per draw. Every run happens up front, the pool
   resized once for the runs at 4 domains: spawning workers costs far
   more than these small runs. *)
let case ~name ~count ~rows ~cells =
  let classes = sorted (List.map (fun r -> r.cls) rows @ List.map (fun (_, _, c) -> c) cells) in
  let draw =
    QCheck.Gen.flatten_l
      (List.map (fun c -> QCheck.Gen.map (fun i -> (c, i)) (Tgen.instance_gen c)) classes)
  in
  let gen = QCheck.Gen.(map List.concat (list_repeat (Tgen.qcount count) draw)) in
  let print insts = Fmt.str "%d instances; the failing one is above" (List.length insts) in
  let prop insts =
    let runs = List.map (fun ((cls, _) as ci) -> (ci, needed ~rows ~cells cls, Hashtbl.create 16)) insts in
    let eval_at domains =
      List.iter
        (fun ((_, inst), needed, memo) ->
          List.iter
            (fun (cfg, name) ->
              if cfg.domains = domains then
                let e = List.find (fun e -> e.name = name) engines in
                let o =
                  try run cfg e inst
                  with exn ->
                    failf inst "%s under %a raised %s" name pp_cfg cfg (Printexc.to_string exn)
                in
                Hashtbl.replace memo (cfg, name) o)
            needed)
        runs
    in
    eval_at 1;
    if List.exists (fun (_, needed, _) -> List.exists (fun (c, _) -> c.domains = 4) needed) runs
    then Tgen.with_domains 4 (fun () -> eval_at 4);
    List.iter (fun (ci, _, memo) -> check ~rows ~cells ci (fun cfg e -> Hashtbl.find memo (cfg, e.name))) runs;
    true
  in
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:1 (QCheck.make ~print gen) prop)

(* --- Where each part of the matrix is reported --- *)

(* A case under a subsystem suite, named after the pairwise property it
   replaced there: it claims the cells of some knobs on some engines,
   on the given classes ([] = all of them). *)
type home = {
  suite : string;
  test : string;
  count : int;
  knobs : knob list;
  engines : engine list;
  classes : Tgen.cls list;
}

let claims h ((k, e, c) : cell) =
  List.memq k h.knobs && List.memq e h.engines && (h.classes = [] || List.mem c h.classes)

let grounder_based = [ valid; wellfounded; inflationary; stable; envelope ]
let relational = [ stratified; seminaive; naive; positive_envelope ]
let recursive = [ rec_eval; rec_of_ifp ]

let homes =
  let home ?(classes = []) suite count test knobs engines =
    { suite; test; count; knobs; engines; classes }
  in
  let ifp = Tgen.[ Alg_ifp; Alg_ifp_positive ] in
  [ home "algebra" 200 "semi-naive IFP = naive IFP" [ strategy_naive ] [ alg_eval ];
    home "algebra" 100 "semi-naive rec_eval bounds = naive" [ strategy_naive ] recursive;
    home "algebra" 200 "fused eval = unfused eval (value and fuel)" [ unfused; unfused_naive ]
      [ alg_eval ];
    home "algebra" 100 "fused rec_eval = unfused (bounds and fuel)" [ unfused; unfused_naive ]
      recursive;
    home "algebra" 40 "window covering the universe is sound" [ window ] recursive;
    home "metrics" 30 "metrics-on ≡ metrics-off: Eval IFP (domains 1 and 4)"
      [ metrics; metrics_d4 ] [ alg_eval ];
    home "metrics" 25 "metrics-on ≡ metrics-off: Rec_eval solve (domains 1 and 4)"
      [ metrics; metrics_d4 ] recursive;
    home "metrics" 25 "metrics-on ≡ metrics-off: datalog semi-naive (domains 1 and 4)"
      [ metrics; metrics_d4 ] relational;
    home "metrics" 25 "metrics-on ≡ metrics-off: grounder (domains 1 and 4)"
      [ metrics; metrics_d4 ] grounder_based;
    home "obs" 60 "traced valid run is byte-identical" [ trace ] grounder_based;
    home "obs" 60 "traced IFP eval is byte-identical" [ trace ] [ alg_eval ];
    home "parallel" 60 "Eval: domains:4 = domains:1 (value and fuel)" [ domains_4 ] [ alg_eval ];
    home "parallel" 40 "Rec_eval: domains:4 = domains:1 (bounds and fuel)" [ domains_4 ] recursive;
    home "parallel" 60 "Seminaive: domains:4 = domains:1 (EDB and fuel)" [ domains_4 ] relational;
    home "parallel" 40 "grounder/valid: domains:4 = domains:1" [ domains_4 ] grounder_based;
    home "parallel" 40 "Stratified_to_ifp.eval_all: domains:4 = domains:1, = eval_pred"
      [ domains_4 ] [ t43_all; t43_pred ];
    home "parallel" 30 "traced = untraced at domains:4" [ trace_d4 ] [ alg_eval ];
    home "plan" 200 "eval planned=unplanned greedy" [ plan_greedy; rewrite_greedy ] [ alg_eval ]
      ~classes:[ Tgen.Alg_region ];
    home "plan" 200 "eval planned=unplanned cost" [ plan_cost; rewrite_cost ] [ alg_eval ]
      ~classes:[ Tgen.Alg_region ];
    home "plan" 100 "rec_eval planned=unplanned" [ plan_greedy; plan_cost; plan_cost_naive ]
      recursive;
    home "plan" 100 "ifp delta path planned=unplanned" [ plan_cost; plan_cost_naive ]
      [ alg_eval ] ~classes:ifp;
    home "plan" 100 "stratified order stats=syntactic" [ plan_cost ] relational;
    home "plan" 60 "valid order stats=syntactic" [ plan_cost ] grounder_based;
    home "chaos" 80 "governed (no ceiling hit) ≡ plain fuel (value and fuel)" [ governed ]
      [ alg_eval ];
    home "incremental" 150 "incremental IFP ≡ from-scratch (random updates)" [ incremental ]
      [ alg_eval ] ~classes:(Tgen.Alg_region :: ifp);
    home "incremental" 300 "incremental operators ≡ from-scratch" [ incremental ] [ alg_eval ]
      ~classes:[ Tgen.Alg_expr ];
    home "incremental" 60 "incremental Rec ≡ from-scratch (random updates)" [ incremental ]
      [ rec_eval ];
    home "incremental" 150 "incremental Datalog ≡ from-scratch (random updates)" [ incremental ]
      [ stratified ];
    home "incremental" 60 "live grounding ≡ from-scratch (valid semantics, random updates)"
      [ incremental ] [ valid; wellfounded; inflationary ] ]

(* A cell claimed by two homes is checked by the first. *)
let home_of c = List.find_opt (fun h -> claims h c) homes

(* Every case, tagged with its suite: the theorem rows, the homes, then
   the [oracle] cases for the cells no home claims, one per engine. *)
let suites =
  List.map
    (fun r ->
      let suite, count, name =
        match r.home with
        | Some (suite, count) -> (suite, count, r.row)
        | None -> ("oracle", 60, Fmt.str "%s (%s)" r.row r.ref_)
      in
      (suite, case ~name ~count ~rows:[ r ] ~cells:[]))
    theorems
  @ List.map
      (fun h ->
        match List.filter (fun c -> match home_of c with Some h' -> h' == h | None -> false) cells with
        | [] -> invalid_arg ("an oracle case with no cell: " ^ h.test)
        | cells -> (h.suite, case ~name:h.test ~count:h.count ~rows:[] ~cells))
      homes
  @ List.filter_map
      (fun e ->
        match List.filter (fun ((_, e', _) as c) -> e' == e && home_of c = None) cells with
        | [] -> None
        | cells -> Some ("oracle", case ~name:("knobs x " ^ e.name) ~count:e.samples ~rows:[] ~cells))
      engines
