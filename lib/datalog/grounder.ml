open Recalg_kernel
module Obs = Recalg_obs.Obs
module Tuples = Edb.Tuples

type state = {
  program : Program.t;
  fuel : Limits.fuel;
  atoms : Propgm.fact Interner.t;
  store : Relstore.t;
  seen_rules : (int * int list * int list, unit) Hashtbl.t;
  mutable ground_rules : Propgm.rule list;
  (* Probe accounting, only bumped while a sink is installed; emitted as
     counters when grounding completes. *)
  mutable probes : Relstore.probes;
}

let intern_fact st fact =
  match Interner.find_opt st.atoms fact with
  | Some id -> id
  | None ->
    Limits.spend st.fuel ~what:"grounder: atom";
    Interner.intern st.atoms fact

let rule_key ~head ~pos ~neg =
  (head, List.sort Int.compare pos, List.sort Int.compare neg)

let emit_rule st ~head ~pos ~neg =
  let key = rule_key ~head ~pos ~neg in
  if not (Hashtbl.mem st.seen_rules key) then begin
    Hashtbl.add st.seen_rules key ();
    Limits.spend st.fuel ~what:"grounder: rule instance";
    st.ground_rules <-
      { Propgm.head; pos = Array.of_list pos; neg = Array.of_list neg }
      :: st.ground_rules;
    let pred, tup = Interner.get st.atoms head in
    Relstore.discover st.store pred tup
  end

(* Emit every instance of the rule whose positive atoms lie in the
   current envelope, under the semi-naive split [delta] (see
   {!Relstore.solve}). [body] is the [ordered] body minus its negative
   literals — grounding ranges over the positive envelope, so negation
   never filters; the negative atoms are recorded from [ordered] in
   evaluation order, not decided. *)
let instantiate_rule st ((r : Rule.t), ordered) body ~delta =
  let builtins = st.program.Program.builtins in
  Relstore.solve st.store st.probes body ~delta (fun subst ->
      match Literal.ground_atom builtins subst r.Rule.head with
      | Some head_fact ->
        let head = intern_fact st head_fact in
        let pos_ids, neg_ids =
          List.fold_left
            (fun (ps, ns) lit ->
              match lit with
              | Literal.Pos a -> (
                match Literal.ground_atom builtins subst a with
                | Some f -> (intern_fact st f :: ps, ns)
                | None -> (ps, ns))
              | Literal.Neg a -> (
                match Literal.ground_atom builtins subst a with
                | Some f -> (ps, intern_fact st f :: ns)
                | None -> (ps, ns))
              | Literal.Eq _ | Literal.Neq _ -> (ps, ns))
            ([], []) ordered
        in
        emit_rule st ~head ~pos:(List.rev pos_ids) ~neg:(List.rev neg_ids)
      | None -> ())

let plans ?order program edb =
  List.map
    (fun ((_, ordered) as plan) ->
      ( plan,
        Relstore.compile program.Program.builtins
          (List.filter
             (fun lit ->
               match lit with
               | Literal.Neg _ -> false
               | Literal.Pos _ | Literal.Eq _ | Literal.Neq _ -> true)
             ordered) ))
    (Relstore.order_rules ?order program ~base:edb program.Program.rules)

let promote st =
  Relstore.promote st.store;
  if Obs.enabled () then begin
    let envelope, delta =
      Relstore.fold
        (fun pred ~full:_ ~delta ~next:_ (e, d) ->
          (e + Relstore.size st.store pred, d + Tuples.cardinal delta))
        st.store (0, 0)
    in
    Obs.count "ground/envelope" envelope;
    Obs.count "ground/delta" delta
  end

(* One unrestricted pass over every rule, then a round boundary. *)
let instantiate_all st plans =
  List.iter (fun (plan, body) -> instantiate_rule st plan body ~delta:None) plans;
  promote st

let close_seminaive st plans =
  while Relstore.delta_nonempty st.store do
    Limits.check st.fuel ~what:"grounder: round";
    Faultinj.hit "ground/round";
    Obs.count "ground/round" 1;
    List.iter
      (fun (plan, body, delta) -> instantiate_rule st plan body ~delta)
      (Relstore.delta_tasks st.store plans);
    promote st
  done

(* Seed the envelope with the extensional database; EDB facts become
   body-less ground rules so every semantics sees them as axioms. *)
let seed_axioms st edb =
  Edb.fold
    (fun pred tup () ->
      let id = intern_fact st (pred, tup) in
      emit_rule st ~head:id ~pos:[] ~neg:[])
    edb ()

let propgm_of st =
  { Propgm.atoms = st.atoms; rules = Array.of_list (List.rev st.ground_rules) }

let flush_probe_counters st =
  if Obs.enabled () then begin
    let p = st.probes in
    Obs.count "ground/index_hit" p.Relstore.hits;
    Obs.count "ground/index_miss" p.Relstore.misses;
    Obs.count "ground/scan" p.Relstore.scans;
    st.probes <- Relstore.probes ();
    Obs.count "ground/atoms" (Interner.size st.atoms);
    Obs.count "ground/rules" (List.length st.ground_rules)
  end

(* Ground [program] over [edb]: the EDB becomes the first delta; a first
   pass without a delta restriction covers rules whose bodies have no
   positive literal and seeds everything else; semi-naive rounds close
   up. *)
let start ~fuel ?order program edb =
  let st =
    { program;
      fuel;
      atoms = Interner.create ~hash:Propgm.fact_hash ~equal:Propgm.fact_equal ();
      store = Relstore.create ();
      seen_rules = Hashtbl.create 256;
      ground_rules = [];
      probes = Relstore.probes () }
  in
  let plans = plans ?order program edb in
  seed_axioms st edb;
  promote st;
  instantiate_all st plans;
  close_seminaive st plans;
  flush_probe_counters st;
  (st, plans)

let ground ?(fuel = Limits.default ()) ?order program edb =
  Obs.span "ground" @@ fun () -> propgm_of (fst (start ~fuel ?order program edb))

(* Resident grounding under update batches.

   The envelope is monotone in the extensional database — [solve] never
   lets a negative literal filter — so insertions are a semi-naive
   continuation: the new facts enter as axiom rules, become the delta,
   and the ordinary closing rounds extend the materialization.

   Deletions exploit that the materialized ground rules record the whole
   derivation structure of the envelope. Removing the deleted facts'
   axiom rules and recomputing atom liveness over the remaining rules (a
   rule supports its head once every positive body atom is live) yields
   exactly the envelope of the shrunk database; dead rules and dead
   store tuples are pruned. One conservative corner: a fact that is both
   extensional and the head of a body-less rule instance shares a single
   materialized rule with its axiom, so retraction can overdelete it —
   the full re-instantiation pass that follows rederives it, DRed-style.

   Atoms stay interned forever: the interner cannot shrink, but a stale
   atom heads no rule, so every semantics maps it to false and
   interpretation-level equality with a from-scratch grounding holds. *)
module Live = struct
  type nonrec t = {
    st : state;
    plans : ((Rule.t * Literal.t list) * Relstore.body) list;
    mutable edb : Edb.t;
  }

  let start ?(fuel = Limits.default ()) ?order program edb =
    Obs.span "ground.live_start" @@ fun () ->
    let st, plans = start ~fuel ?order program edb in
    { st; plans; edb }

  let edb t = t.edb
  let propgm t = propgm_of t.st

  (* Checkpoints make update batches all-or-nothing. Everything the
     batch mutates is either an immutable value behind a mutable field
     ([edb], [ground_rules], the store's [Tuples.t] sections) or
     rebuildable from one of those ([seen_rules] from the rule list,
     indexes lazily from the sections) — so a checkpoint is a handful of
     pointer copies, and [restore] only pays the [seen_rules] rebuild on
     the failure path. Checkpoints are taken between batches, when the
     grounding is closed and every [next] section is empty. Interned
     atoms are deliberately not rolled back: the interner only grows,
     and an atom heading no rule is invisible to every semantics (see
     the module comment). *)
  type checkpoint = {
    cp_edb : Edb.t;
    cp_rules : Propgm.rule list;
    cp_sections : (string * (Tuples.t * Tuples.t)) list;
  }

  let checkpoint t =
    {
      cp_edb = t.edb;
      cp_rules = t.st.ground_rules;
      cp_sections =
        Relstore.fold
          (fun pred ~full ~delta ~next:_ acc -> (pred, (full, delta)) :: acc)
          t.st.store [];
    }

  let reset_seen_rules st rules =
    Hashtbl.reset st.seen_rules;
    List.iter
      (fun (r : Propgm.rule) ->
        Hashtbl.replace st.seen_rules
          (rule_key ~head:r.Propgm.head ~pos:(Array.to_list r.Propgm.pos)
             ~neg:(Array.to_list r.Propgm.neg))
          ())
      rules

  let restore t cp =
    let st = t.st in
    t.edb <- cp.cp_edb;
    st.ground_rules <- cp.cp_rules;
    reset_seen_rules st cp.cp_rules;
    Relstore.clear st.store;
    List.iter
      (fun (pred, (full, delta)) -> Relstore.load st.store pred ~full ~delta)
      cp.cp_sections

  module Iset = Set.Make (Int)

  let retract t dels =
    let st = t.st in
    (* Drop the deleted facts' axiom rules. *)
    let dead_axioms =
      Edb.fold
        (fun pred tup acc ->
          match Interner.find_opt st.atoms (pred, tup) with
          | Some id -> Iset.add id acc
          | None -> acc)
        dels Iset.empty
    in
    let candidates =
      List.filter
        (fun (r : Propgm.rule) ->
          not
            (Array.length r.Propgm.pos = 0
            && Array.length r.Propgm.neg = 0
            && Iset.mem r.Propgm.head dead_axioms))
        st.ground_rules
    in
    (* Atom liveness over the remaining rules, as a least fixpoint from
       scratch — support counts cannot simply be decremented, because
       facts may have supported each other in a cycle reachable only
       through a deleted fact. Counting worklist: each rule holds the
       number of its not-yet-live positive occurrences; a rule reaching
       zero makes its head live, waking the rules waiting on it. *)
    let live : (int, unit) Hashtbl.t = Hashtbl.create 256 in
    let waiting : (int, (int ref * Propgm.rule) list) Hashtbl.t =
      Hashtbl.create 256
    in
    let queue = Queue.create () in
    let mark id =
      if not (Hashtbl.mem live id) then begin
        Hashtbl.add live id ();
        Queue.push id queue
      end
    in
    let entries =
      List.map
        (fun (r : Propgm.rule) ->
          let unmet = ref (Array.length r.Propgm.pos) in
          Array.iter
            (fun a ->
              let l = Option.value (Hashtbl.find_opt waiting a) ~default:[] in
              Hashtbl.replace waiting a ((unmet, r) :: l))
            r.Propgm.pos;
          if !unmet = 0 then mark r.Propgm.head;
          (unmet, r))
        candidates
    in
    while not (Queue.is_empty queue) do
      let a = Queue.pop queue in
      Limits.spend st.fuel ~what:"grounder: liveness";
      match Hashtbl.find_opt waiting a with
      | None -> ()
      | Some l ->
        Hashtbl.remove waiting a;
        List.iter
          (fun (unmet, (r : Propgm.rule)) ->
            decr unmet;
            if !unmet = 0 then mark r.Propgm.head)
          l
    done;
    let kept =
      List.filter_map
        (fun (unmet, r) -> if !unmet = 0 then Some r else None)
        entries
    in
    Obs.countf "incr/ground_pruned_rules" (fun () ->
        List.length st.ground_rules - List.length kept);
    st.ground_rules <- kept;
    reset_seen_rules st kept;
    (* Prune dead envelope tuples; reloading a predicate drops its
       indexes. Between updates [delta]/[next] are empty, so [full] is
       the whole envelope. *)
    List.iter
      (fun (pred, full) ->
        let alive tup =
          match Interner.find_opt st.atoms (pred, tup) with
          | Some id -> Hashtbl.mem live id
          | None -> false
        in
        Relstore.load st.store pred ~full:(Tuples.filter alive full)
          ~delta:Tuples.empty)
      (Relstore.fold
         (fun pred ~full ~delta:_ ~next:_ acc -> (pred, full) :: acc)
         st.store [])

  (* All-or-nothing: any exception mid-batch — fuel, a governed
     ceiling, an injected fault — restores the pre-batch checkpoint
     before re-raising, so the resident grounding never holds a
     half-applied update. *)
  let update t u =
    Obs.span "ground.live_update" @@ fun () ->
    let cp = checkpoint t in
    try
      let adds, dels = Edb.Update.effective t.edb u in
      t.edb <- Edb.Update.apply u t.edb;
      let n_adds = Edb.fold (fun _ _ n -> n + 1) adds 0
      and n_dels = Edb.fold (fun _ _ n -> n + 1) dels 0 in
      if n_adds + n_dels > 0 then begin
        Obs.count "incr/ground_insertions" n_adds;
        Obs.count "incr/ground_retractions" n_dels;
        Limits.spend t.st.fuel ~what:"grounder: update batch";
        Faultinj.hit "incr/batch";
        if n_dels > 0 then retract t dels;
        seed_axioms t.st adds;
        promote t.st;
        (* Rederive: one unrestricted pass re-fires every rule against
           the pruned envelope, resurrecting the conservatively
           overdeleted instances noted above, before closing up. *)
        if n_dels > 0 then instantiate_all t.st t.plans;
        close_seminaive t.st t.plans;
        flush_probe_counters t.st
      end;
      propgm_of t.st
    with e ->
      restore t cp;
      raise e
end
