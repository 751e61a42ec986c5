open Recalg_kernel
module Obs = Recalg_obs.Obs
module Tuples = Edb.Tuples

type order = Relstore.order

(* A store holding every predicate the rules read or derive, by pointer:
   the facts of [fresh] as its delta, the rest of [base] as its full
   section. *)
let store_of program rules ~base ~fresh =
  let store = Relstore.create () in
  List.iter
    (fun pred ->
      let delta = Edb.relation fresh pred in
      Relstore.load store pred
        ~full:(Tuples.diff (Edb.relation base pred) delta)
        ~delta)
    (Program.all_preds { program with Program.rules });
  store

(* Each rule with its ordered body (kept to tell whether a re-rank
   changed it) and the compiled form the matcher runs. *)
let plans ?order ?live program ~base rules =
  List.map
    (fun (r, lits) -> ((r, lits), Relstore.compile program.Program.builtins lits))
    (Relstore.order_rules ?order ?live program ~base rules)

(* The shared fixpoint loop: [store] arrives loaded with every predicate
   the rules read or derive (that is the only difference between a
   from-scratch run and a resumed one). The first round is governed by
   [first]: [`Full] runs it unrestricted (the from-scratch seeding, and
   DRed's rederivation pass), while [`Delta] fires only the
   delta-restricted instantiations of the predicates whose delta is
   loaded non-empty — the newly inserted extensional facts and any new
   derived-pred axioms — the semi-naive continuation, which never
   rescans the materialized bulk. Afterwards, delta-restricted rounds
   close up either way. *)
let eval_loop ~variant ~first ~fuel ~order program ~base ~store ~derived rules =
  let builtins = program.Program.builtins in
  (* Under [`Stats], re-rank the body literals each round against the
     live store cardinalities: as derived relations grow past their
     static envelopes, the cheapest enumeration order changes. Every
     valid ordering derives the same facts on the same rounds, so the
     re-rank moves enumeration cost only — results and fuel are
     untouched — and it reads the store, not the metrics registry, so
     runs are identical with metrics on or off. *)
  let live_plans prev =
    match order with
    | `Syntactic -> prev
    | `Stats ->
      let live pred =
        if List.mem pred derived then Some (Relstore.size store pred) else None
      in
      let next = plans ~order ~live program ~base rules in
      let same =
        List.for_all2
          (fun ((_, l1), _) ((_, l2), _) -> List.for_all2 ( == ) l1 l2)
          prev next
      in
      if same then prev
      else begin
        Obs.count "seminaive/reorder" 1;
        next
      end
  in
  let cur_plans = ref (plans ~order program ~base rules) in
  let commit pred args =
    if not (Relstore.mem store pred args) then begin
      Limits.spend fuel ~what:"seminaive: fact";
      Relstore.discover store pred args
    end
  in
  let probes = Relstore.probes () in
  let derive ((r : Rule.t), _) body delta =
    Relstore.solve store probes body ~delta (fun subst ->
        match Literal.ground_atom builtins subst r.Rule.head with
        | Some (pred, args) -> commit pred args
        | None -> ())
  in
  (* Parallel round shape: every (rule, delta position) task enumerates
     its instantiations against the frozen store — reads only, with a
     task-local dedup — and the candidate streams are then committed
     sequentially in task order. That replays exactly the derivation
     sequence of the sequential loop (same facts, same order, same fuel
     spends), so the store and fuel stay byte-identical to [domains:1];
     only the enumeration work fans out (DESIGN.md §9). Every index a
     task can probe is built before the fan-out, so workers never
     mutate the store. *)
  let collect ((r : Rule.t), _) body delta () =
    let seen = Relstore.create () in
    let acc = ref [] in
    Relstore.solve store (Relstore.probes ()) body ~delta (fun subst ->
        match Literal.ground_atom builtins subst r.Rule.head with
        | Some (pred, args)
          when not (Relstore.mem store pred args || Relstore.mem seen pred args)
          ->
          Relstore.discover seen pred args;
          acc := (pred, args) :: !acc
        | Some _ | None -> ());
    List.rev !acc
  in
  let derive_all tasks =
    if List.compare_length_with tasks 2 < 0 || not (Pool.parallel ()) then
      List.iter (fun (plan, body, delta) -> derive plan body delta) tasks
    else begin
      if Obs.enabled () then Obs.count "pool/rule_tasks" (List.length tasks);
      List.iter (fun (_, body, delta) -> Relstore.prepare store body ~delta) tasks;
      let candidates =
        Pool.run
          (List.map (fun (plan, body, delta) -> collect plan body delta) tasks)
      in
      List.iter (List.iter (fun (pred, args) -> commit pred args)) candidates
    end
  in
  let unrestricted plans = List.map (fun (plan, body) -> (plan, body, None)) plans in
  let derived_this_round () =
    Relstore.fold
      (fun _ ~full:_ ~delta:_ ~next acc -> acc + Tuples.cardinal next)
      store 0
  in
  (* Under a [~degrade:true] budget, exhaustion anywhere in the loop is
     caught at this level: the facts derived so far (including the
     not-yet-promoted current round) are a sound under-approximation of
     the monotone fixpoint, returned with the budget latched as
     degraded. Injected faults and other exceptions propagate. *)
  (try
     Obs.count "seminaive/round" 1;
     Faultinj.hit "seminaive/round";
     derive_all
       (match first with
       | `Full -> unrestricted !cur_plans
       | `Delta ->
         (* Every genuinely new derivation consumes at least one new
            fact at some body position (induction over rounds); firing
            each position whose predicate has new facts, with the
            standard old/delta/all split, covers exactly those
            instantiations. *)
         Relstore.delta_tasks store !cur_plans);
     Obs.countf "seminaive/derived" derived_this_round;
     Relstore.promote store;
     while Relstore.delta_nonempty store do
       Limits.check fuel ~what:"seminaive: round";
       Faultinj.hit "seminaive/round";
       Obs.count "seminaive/round" 1;
       cur_plans := live_plans !cur_plans;
       derive_all
         (match variant with
         | `Naive -> unrestricted !cur_plans
         | `Seminaive -> Relstore.delta_tasks store !cur_plans);
       Obs.countf "seminaive/derived" derived_this_round;
       Relstore.promote store
     done
   with e when Limits.degradable fuel e -> Limits.latch fuel e);
  (* Normally [delta]/[next] are empty here; after a degraded cut they
     hold the in-flight facts, all of which are genuinely derived. *)
  Relstore.fold
    (fun pred ~full ~delta ~next acc ->
      if List.mem pred derived then
        Edb.with_relation pred (Tuples.union full (Tuples.union delta next)) acc
      else acc)
    store Edb.empty

let run ~variant ?(fuel = Limits.default ()) ?(order = `Syntactic) program
    ~base rules =
  Obs.span "seminaive" @@ fun () ->
  let derived = List.map Rule.head_pred rules in
  (* A derived predicate may also have extensional facts (ground facts
     of the same name in the database); they behave as axioms, i.e. as
     part of the initial "old" facts. *)
  let store = store_of program rules ~base ~fresh:Edb.empty in
  eval_loop ~variant ~first:`Full ~fuel ~order program ~base ~store ~derived
    rules

let resume ?(fuel = Limits.default ()) ?(order = `Syntactic) ?adds program
    ~base ~init rules =
  Obs.span "seminaive.resume" @@ fun () ->
  let derived = List.map Rule.head_pred rules in
  (* Seed full from the materialized previous state; extensional facts of
     derived predicates that are new in [base] enter as the initial delta
     — they are new axioms. With [adds], the base relations split into
     old facts ([full]) and the new ones ([delta]), and the first round
     fires only the delta-restricted instantiations drawn from the new
     facts (pure semi-naive continuation, for the insert-only path);
     without it the first round wakes every rule against the resumed
     state (the rederivation pass DRed needs). Starting below the
     fixpoint of the rules over [base] is the caller's obligation; from
     there the loop converges to exactly the from-scratch result. *)
  let fresh = Option.value adds ~default:Edb.empty in
  let store = store_of program rules ~base ~fresh in
  List.iter
    (fun pred ->
      let full = Edb.relation init pred in
      Relstore.load store pred ~full
        ~delta:(Tuples.diff (Edb.relation base pred) full))
    derived;
  let first = match adds with None -> `Full | Some _ -> `Delta in
  eval_loop ~variant:`Seminaive ~first ~fuel ~order program ~base ~store
    ~derived rules

(* The frontier is the delta, the rest of [base] the full section: the
   semi-naive split then enumerates exactly the instantiations over
   [base] that use at least one frontier fact. *)
let delta_heads ?order program ~base ~frontier rules =
  let builtins = program.Program.builtins in
  let store = store_of program rules ~base ~fresh:frontier in
  let probes = Relstore.probes () in
  let out = ref Edb.empty in
  List.iter
    (fun (((r : Rule.t), _), body, delta) ->
      Relstore.solve store probes body ~delta (fun subst ->
          match Literal.ground_atom builtins subst r.Rule.head with
          | Some (pred, args) -> out := Edb.add pred args !out
          | None -> ()))
    (Relstore.delta_tasks store (plans ?order program ~base rules));
  !out

let naive ?fuel ?order program ~base rules =
  run ~variant:`Naive ?fuel ?order program ~base rules

let seminaive ?fuel ?order program ~base rules =
  run ~variant:`Seminaive ?fuel ?order program ~base rules

let stratified ?fuel ?order program edb =
  match Safety.check program with
  | Error violations ->
    Error
      (Fmt.str "unsafe program: %a"
         Fmt.(list ~sep:sp Safety.pp_violation)
         violations)
  | Ok () -> (
    match Stratify.strata program with
    | Error msg -> Error msg
    | Ok groups ->
      let eval_rules base group =
        let rules =
          List.filter (fun r -> List.mem (Rule.head_pred r) group) program.Program.rules
        in
        if rules = [] then Edb.empty
        else seminaive ?fuel ?order program ~base rules
      in
      (* With a live pool, a stratum splits into the connected components
         of its dependency graph: components cannot read each other's
         relations, so their fixpoints evaluate as independent tasks
         against the same base and merge in component order. Fuel is
         per-derived-fact, so the shared budget spends the same total as
         the joint sequential loop; the merged EDB is identical because
         the component fixpoints partition the stratum's derived facts
         (DESIGN.md §9). At pool size 1 the stratum is evaluated whole,
         exactly the pre-multicore path. *)
      let eval_group base group =
        let comps =
          if Pool.parallel () then Stratify.components program group
          else [ group ]
        in
        match comps with
        | [] -> base
        | [ comp ] -> Edb.union base (eval_rules base comp)
        | comps ->
          if Obs.enabled () then Obs.count "pool/strata_tasks" (List.length comps);
          let results = Pool.map (fun comp -> eval_rules base comp) comps in
          List.fold_left Edb.union base results
      in
      (* Degradation stops at the stratum that ran out: its facts are a
         sound under-approximation, but evaluating *later* strata
         against it would be unsound (a missing fact could satisfy a
         negative literal), so they are skipped entirely — every
         reported fact remains true, the result just stops early. *)
      let degraded_now () =
        match fuel with
        | Some f -> Limits.degraded f <> None
        | None -> false
      in
      let rec fold_groups base = function
        | [] -> base
        | g :: rest ->
          let base' = eval_group base g in
          if degraded_now () then base' else fold_groups base' rest
      in
      Ok (fold_groups edb groups))
