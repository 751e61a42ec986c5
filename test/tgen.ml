(* Shared QCheck generators: random graphs, random safe programs, random
   algebra expressions — the instance families the equivalence theorems
   are exercised on — plus the pool-size helper the multicore checks
   share. *)

open Recalg

(* Evaluate [f] on a pool of [n] domains, with the join parallel
   threshold forced low so small inputs take the partitioned join path;
   both restored even on failure — later suites assume a quiet pool. *)
let with_domains n f =
  let saved = !Algebra.Join.par_threshold in
  Pool.set_domains n;
  Algebra.Join.par_threshold := 8;
  Fun.protect
    ~finally:(fun () ->
      Algebra.Join.par_threshold := saved;
      Pool.set_domains 1)
    f

(* CI knob: the incremental-equivalence job elevates QCheck iteration
   counts via RECALG_QCHECK_COUNT without patching the test sources. *)
let qcount default =
  match Sys.getenv_opt "RECALG_QCHECK_COUNT" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> max default n
    | Some _ | None -> default)
  | None -> default

let node_names = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]

(* A random directed graph over up to [n] named nodes, as an edge list. *)
let graph_gen ?(max_nodes = 6) ?(max_edges = 10) () =
  QCheck.Gen.(
    let* n = int_range 1 max_nodes in
    let nodes = List.filteri (fun i _ -> i < n) node_names in
    let* m = int_range 0 max_edges in
    let edge = pair (oneofl nodes) (oneofl nodes) in
    let* edges = list_size (return m) edge in
    return (List.sort_uniq compare edges))

(* Random safe (range-restricted by construction) programs over a fixed
   EDB relation e/2 and IDB predicates p, q, r (all unary or binary).
   Bodies start with a positive e-atom binding the variables; extra
   literals may mention IDB predicates.

   [shape] picks the instance class: [`Any] negates freely, so
   non-stratified programs arise; [`Stratified] negates only predicates
   strictly earlier in the order p < q < r and uses positively only
   predicates no later than the head, so every program is stratified;
   [`Positive] never negates. With [constructors], heads and extra
   literals may wrap their first argument in one level of s(_) — e.g.
   p(s(X)) :- e(X,Y) — whose variables e already binds, so the envelope
   stays finite. *)
type shape = [ `Any | `Stratified | `Positive ]

type rand_rule = {
  head : string * int;  (* predicate, arity (1 or 2) *)
  wrap_head : bool;  (* first head argument under s(_) *)
  first : [ `Fwd | `Bwd ];  (* e(X,Y) or e(Y,X) *)
  extra : (bool * string * int * bool) list;
      (* positive?, predicate, arity, first argument under s(_) *)
}

let idb_preds = [ ("p", 1); ("q", 1); ("r", 2) ]

let rand_rule_gen ?(shape : shape = `Any) ?(constructors = false) () =
  QCheck.Gen.(
    let* h = int_range 0 2 in
    let head = List.nth idb_preds h in
    let wrap = if constructors then frequencyl [ (3, false); (1, true) ] else return false in
    let* wrap_head = wrap in
    let* first = oneofl [ `Fwd; `Bwd ] in
    let* n_extra = int_range 0 2 in
    let extra_gen =
      let* positive = if shape = `Positive then return true else bool in
      let allowed =
        List.filteri
          (fun i _ ->
            match shape with
            | `Any | `Positive -> true
            | `Stratified -> if positive then i <= h else i < h)
          idb_preds
      in
      let* w = wrap in
      if allowed = [] then return None
      else map (fun (p, arity) -> Some (positive, p, arity, w)) (oneofl allowed)
    in
    let* extra = list_size (return n_extra) extra_gen in
    return { head; wrap_head; first; extra = List.filter_map Fun.id extra })

let program_of_rand_rules rules =
  let x = Datalog.Dterm.var "X"
  and y = Datalog.Dterm.var "Y" in
  let s_of wrap t = if wrap then Datalog.Dterm.app "s" [ t ] else t in
  let to_rule r =
    let first =
      match r.first with
      | `Fwd -> Datalog.Literal.pos "e" [ x; y ]
      | `Bwd -> Datalog.Literal.pos "e" [ y; x ]
    in
    let extras =
      List.map
        (fun (positive, p, arity, wrap) ->
          let atom_args = if arity = 1 then [ s_of wrap y ] else [ s_of wrap y; x ] in
          if positive then Datalog.Literal.pos p atom_args
          else Datalog.Literal.neg p atom_args)
        r.extra
    in
    let pred, arity = r.head in
    let args = if arity = 1 then [ s_of r.wrap_head x ] else [ s_of r.wrap_head x; y ] in
    Datalog.Rule.make (Datalog.Literal.atom pred args) (first :: extras)
  in
  Datalog.Program.make (List.map to_rule rules)

let program_gen ?shape ?constructors () =
  QCheck.Gen.(
    let* n = int_range 1 5 in
    let* rules = list_size (return n) (rand_rule_gen ?shape ?constructors ()) in
    return (program_of_rand_rules rules))

let rand_program_gen = program_gen ()

let rand_instance_arb =
  QCheck.make
    ~print:(fun (p, edges) ->
      Datalog.Program.to_string p ^ " | "
      ^ String.concat " " (List.map (fun (a, b) -> a ^ "->" ^ b) edges))
    QCheck.Gen.(pair rand_program_gen (graph_gen ~max_nodes:4 ~max_edges:6 ()))

let e_edb edges =
  List.fold_left
    (fun edb (a, b) -> Datalog.Edb.add "e" [ Value.sym a; Value.sym b ] edb)
    Datalog.Edb.empty edges

(* Random small value sets over integers, for algebra-identity properties. *)
let small_set_gen =
  QCheck.Gen.(
    let* elems = list_size (int_range 0 8) (int_range 0 6) in
    return (Value.set (List.map Value.int elems)))

let small_set_arb = QCheck.make ~print:Value.to_string small_set_gen

let triple_sets_arb =
  QCheck.make
    ~print:(fun (a, b, c) ->
      Fmt.str "%a %a %a" Value.pp a Value.pp b Value.pp c)
    QCheck.Gen.(triple small_set_gen small_set_gen small_set_gen)

(* Random non-recursive algebra expressions over two unary integer
   relations d1, d2 — the instance family for the Proposition 5.4
   equivalence property. *)
let algebra_db =
  Algebra.Db.of_list
    [
      ("d1", List.map Value.int [ 0; 1; 2; 3 ]);
      ("d2", List.map Value.int [ 2; 3; 4 ]);
    ]

let expr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return (Algebra.Expr.rel "d1");
        return (Algebra.Expr.rel "d2");
        (let* elems = list_size (int_range 0 3) (int_range 0 5) in
         return (Algebra.Expr.lit (List.map Value.int elems)));
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 2,
            let* a = node (depth - 1) in
            let* b = node (depth - 1) in
            return (Algebra.Expr.union a b) );
          ( 2,
            let* a = node (depth - 1) in
            let* b = node (depth - 1) in
            return (Algebra.Expr.diff a b) );
          ( 1,
            let* a = node (depth - 1) in
            let* b = node (depth - 1) in
            return (Algebra.Expr.product a b) );
          ( 2,
            let* a = node (depth - 1) in
            let* k = int_range 0 4 in
            return
              (Algebra.Expr.select
                 (Algebra.Pred.Lt (Algebra.Efun.Id, Algebra.Efun.Const (Value.int k)))
                 a) );
          ( 2,
            let* a = node (depth - 1) in
            let* k = int_range 0 3 in
            return (Algebra.Expr.map (Algebra.Efun.add_const k) a) );
        ]
  in
  node 3

let expr_arb = QCheck.make ~print:Algebra.Expr.to_string expr_gen

(* Random recursive bodies over the binary relation "edge" and the
   fixpoint variable "x" — the instance family for the semi-naive/naive
   engine equivalence. Every operator maps pair-sets over the node
   symbols to pair-sets over the node symbols, so fixpoints live in a
   finite universe; difference and intersection place "x" under a Diff
   right-hand side, exercising the conservative fallback alongside the
   delta-linear fragment. *)
let compose_expr a b =
  Algebra.Expr.(
    map
      (Algebra.Efun.Tuple_of
         [ Algebra.Efun.Compose (Algebra.Efun.Proj 1, Algebra.Efun.Proj 1);
           Algebra.Efun.Compose (Algebra.Efun.Proj 2, Algebra.Efun.Proj 2) ])
      (select
         (Algebra.Pred.Eq
            ( Algebra.Efun.Compose (Algebra.Efun.Proj 2, Algebra.Efun.Proj 1),
              Algebra.Efun.Compose (Algebra.Efun.Proj 1, Algebra.Efun.Proj 2) ))
         (product a b)))

let ifp_body_gen_with ?(depth = 3) ~positive () =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (3, return (Algebra.Expr.rel "edge"));
        (3, return (Algebra.Expr.rel "x"));
        ( 1,
          let* pairs =
            list_size (int_range 0 2) (pair (oneofl node_names) (oneofl node_names))
          in
          return
            (Algebra.Expr.lit
               (List.map
                  (fun (a, b) -> Value.pair (Value.sym a) (Value.sym b))
                  pairs)) ) ]
  in
  let swap = Algebra.Efun.Tuple_of [ Algebra.Efun.Proj 2; Algebra.Efun.Proj 1 ] in
  let self_loop = Algebra.Pred.Eq (Algebra.Efun.Proj 1, Algebra.Efun.Proj 2) in
  let rec node depth =
    if depth = 0 then leaf
    else
      let sub = node (depth - 1) in
      frequency
        ([ (2, leaf);
           (3, map2 Algebra.Expr.union sub sub);
           (2, map2 compose_expr sub sub);
           (1, map (Algebra.Expr.map swap) sub);
           (1, map (Algebra.Expr.select (Algebra.Pred.Not self_loop)) sub) ]
        @
        if positive then []
        else
          [ (2, map2 Algebra.Expr.diff sub sub);
            (1, map2 Algebra.Expr.inter sub sub) ])
  in
  node depth

let ifp_body_gen = ifp_body_gen_with ~positive:false ()

(* Random deep values over every constructor — the instance family for
   the hash-consing kernel properties. *)
let deep_value_gen =
  QCheck.Gen.(
    let leaf =
      oneof
        [ map Value.int (int_range (-3) 6);
          map Value.str (oneofl [ "s"; "t" ]);
          map Value.bool bool;
          map Value.sym (oneofl [ "a"; "b"; "c" ]) ]
    in
    let rec node depth =
      if depth = 0 then leaf
      else
        frequency
          [ (3, leaf);
            (2, map Value.tuple (list_size (int_range 0 3) (node (depth - 1))));
            (2, map Value.set (list_size (int_range 0 3) (node (depth - 1))));
            ( 2,
              let* f = oneofl [ "f"; "g"; "succ" ] in
              let* args = list_size (int_range 0 2) (node (depth - 1)) in
              return (Value.cstr f args) ) ]
    in
    node 4)

let deep_value_arb = QCheck.make ~print:Value.to_string deep_value_gen

(* Set values from the printable fragment shared by [Value.pp] and the
   algebra parser's literal syntax: integers, symbols, tuples, nested
   sets. *)
let printable_set_gen =
  QCheck.Gen.(
    let leaf =
      oneof
        [ map Value.int (int_range 0 9); map Value.sym (oneofl [ "a"; "b"; "c" ]) ]
    in
    let rec node depth =
      if depth = 0 then leaf
      else
        frequency
          [ (3, leaf);
            (1, map Value.tuple (list_size (int_range 1 3) (node (depth - 1))));
            (1, map Value.set (list_size (int_range 0 3) (node (depth - 1)))) ]
    in
    map Value.set (list_size (int_range 0 4) (node 2)))

let printable_set_arb = QCheck.make ~print:Value.to_string printable_set_gen

(* Random Z-sets over small integer values, weights in [-3, 3] — the
   instance family for the Z-set group and boundary laws. *)
let zset_gen =
  QCheck.Gen.(
    let* entries =
      list_size (int_range 0 8) (pair (int_range 0 6) (int_range (-3) 3))
    in
    return (Zset.of_list (List.map (fun (v, w) -> (Value.int v, w)) entries)))

let zset_arb = QCheck.make ~print:Zset.to_string zset_gen

let zset_triple_arb =
  QCheck.make
    ~print:(fun (a, b, c) ->
      Fmt.str "%s %s %s" (Zset.to_string a) (Zset.to_string b)
        (Zset.to_string c))
    QCheck.Gen.(triple zset_gen zset_gen zset_gen)

(* Random join regions for the planner: a random product shape over 2-4
   literal leaves of integer pairs, random equi/pushdown conjuncts over
   leaf components, sometimes wrapped in a projection to one leaf (the
   semijoin opportunity). *)
type rshape = RLeaf of int | RNode of rshape * rshape

let rec rshape_gen lo hi =
  QCheck.Gen.(
    if hi - lo = 1 then return (RLeaf lo)
    else
      let* s = int_range (lo + 1) (hi - 1) in
      let* l = rshape_gen lo s in
      let* r = rshape_gen s hi in
      return (RNode (l, r)))

let rec rshape_paths s pfx =
  match s with
  | RLeaf i -> [ (i, pfx) ]
  | RNode (l, r) ->
    rshape_paths l (Algebra.Join.compose (Algebra.Efun.Proj 1) pfx)
    @ rshape_paths r (Algebra.Join.compose (Algebra.Efun.Proj 2) pfx)

let region_gen =
  let open Algebra in
  let key c path = Join.compose (Efun.Proj c) path in
  let ipair a b = Value.pair (Value.int a) (Value.int b) in
  QCheck.Gen.(
    let* n = int_range 2 4 in
    let* shape = rshape_gen 0 n in
    let paths = rshape_paths shape Efun.Id in
    let leaf_gen =
      let* sz = int_range 0 5 in
      let* pairs = list_size (return sz) (pair (int_range 0 3) (int_range 0 3)) in
      return (Expr.lit (List.map (fun (a, b) -> ipair a b) pairs))
    in
    let* leaves = list_size (return n) leaf_gen in
    let leaves = Array.of_list leaves in
    let conj_gen =
      let* i = int_range 0 (n - 1) in
      let* ci = int_range 1 2 in
      let* kind = int_range 0 2 in
      if kind < 2 then
        let* j = int_range 0 (n - 1) in
        let* cj = int_range 1 2 in
        return
          (Pred.Eq (key ci (List.assoc i paths), key cj (List.assoc j paths)))
      else
        let* bound = int_range 0 3 in
        return
          (Pred.Leq (key ci (List.assoc i paths), Efun.Const (Value.int bound)))
    in
    let* nconj = int_range 1 3 in
    let* conjs = list_size (return nconj) conj_gen in
    let rec build s =
      match s with
      | RLeaf i -> leaves.(i)
      | RNode (l, r) -> Expr.product (build l) (build r)
    in
    let p =
      List.fold_left (fun acc c -> Pred.And (acc, c)) (List.hd conjs) (List.tl conjs)
    in
    let joined = Expr.select p (build shape) in
    let* wrap = int_range 0 2 in
    if wrap = 0 then
      let* i = int_range 0 (n - 1) in
      return (Expr.map (List.assoc i paths) joined)
    else return joined)

(* --- Instance classes of the differential oracle (test_oracle.ml) ---

   An instance is a program with its base data plus a short sequence of
   update batches, which only the incremental engines replay; every
   other engine evaluates the base data. *)

type instance =
  | Dl of {
      program : Datalog.Program.t;
      edb : Datalog.Edb.t;
      updates : Datalog.Edb.Update.t list;
    }
  | Alg of {
      defs : Algebra.Defs.t;
      db : Algebra.Db.t;
      query : Algebra.Expr.t;
      updates : Algebra.Incremental.Update.t list;
    }

type cls =
  | Dl_any  (** negation anywhere, constructor heads; often unstratified *)
  | Dl_stratified
  | Dl_positive
  | Dl_win  (** the WIN game win(X) :- e(X,Y), not win(Y) on a random graph *)
  | Alg_ifp  (** IFP of a random body over a random graph *)
  | Alg_ifp_positive  (** the same with x never under a difference *)
  | Alg_ifp_small  (** shallow positive IFP bodies over graphs of 3 nodes *)
  | Alg_rec  (** two mutually recursive constants with random bodies *)
  | Alg_win  (** the WIN game as an algebra= constant *)
  | Alg_expr  (** non-recursive expressions over d1, d2 *)
  | Alg_region  (** planner join regions over literal relations *)

let pp_instance ppf = function
  | Dl { program; edb; updates } ->
    Fmt.pf ppf "@[<v>program: %s@,edb: %a@,updates: %a@]"
      (Datalog.Program.to_string program) Datalog.Edb.pp edb
      Fmt.(list ~sep:(any "; ") Datalog.Edb.Update.pp) updates
  | Alg { defs; db; query; updates } ->
    Fmt.pf ppf "@[<v>defs: %a@,query: %s@,db: %a@,updates: %a@]" Algebra.Defs.pp
      defs (Algebra.Expr.to_string query) Algebra.Db.pp db
      Fmt.(list ~sep:(any "; ") Algebra.Incremental.Update.pp) updates

(* One to three batches of one to four signed changes. *)
let updates_gen ~empty ~insert ~delete change =
  let batch ops =
    List.fold_left (fun u (ins, c) -> (if ins then insert else delete) c u) empty ops
  in
  QCheck.Gen.(
    list_size (int_range 1 3) (map batch (list_size (int_range 1 4) (pair bool change))))

let node = QCheck.Gen.oneofl [ "a"; "b"; "c"; "d"; "e" ]

let e_updates =
  let fact (a, b) = [ Value.sym a; Value.sym b ] in
  Datalog.Edb.Update.(
    updates_gen ~empty
      ~insert:(fun c -> insert "e" (fact c))
      ~delete:(fun c -> delete "e" (fact c))
      QCheck.Gen.(pair node node))

let alg_updates change =
  Algebra.Incremental.Update.(
    updates_gen ~empty ~insert:(fun (r, v) -> insert r v) ~delete:(fun (r, v) -> delete r v)
      change)

let pair_updates rel =
  alg_updates
    QCheck.Gen.(map (fun (a, b) -> (rel, Value.pair (Value.sym a) (Value.sym b))) (pair node node))

let pair_db rel edges =
  Algebra.Db.of_list
    [ (rel, List.map (fun (a, b) -> Value.pair (Value.sym a) (Value.sym b)) edges) ]

let win_rule = fst (Datalog.Parser.parse_exn "win(X) :- e(X,Y), not win(Y).")

let algebra_win_body =
  Algebra.Expr.(pi 1 (diff (rel "move") (product (pi 1 (rel "move")) (rel "win"))))

(* The tagged union of two constants: one query holding both exactly. *)
let tagged c d =
  let tag k = Algebra.Efun.Tuple_of [ Algebra.Efun.Const (Value.int k); Algebra.Efun.Id ] in
  Algebra.Expr.(union (map (tag 1) (rel c)) (map (tag 2) (rel d)))

let instance_gen cls =
  let open QCheck.Gen in
  let dl program =
    let* program = program and* edges = graph_gen ~max_nodes:4 ~max_edges:6 () in
    let* updates = e_updates in
    return (Dl { program; edb = e_edb edges; updates })
  in
  let alg ?(defs = Algebra.Defs.make []) ~rel ~graph query =
    let* query = query and* edges = graph and* updates = pair_updates rel in
    return (Alg { defs; db = pair_db rel edges; query; updates })
  in
  let ifp ?depth ?(graph = graph_gen ()) positive =
    alg ~rel:"edge" ~graph (map (Algebra.Expr.ifp "x") (ifp_body_gen_with ?depth ~positive ()))
  in
  match cls with
  | Dl_any -> dl (program_gen ~shape:`Any ~constructors:true ())
  | Dl_stratified -> dl (program_gen ~shape:`Stratified ~constructors:true ())
  | Dl_positive -> dl (program_gen ~shape:`Positive ~constructors:true ())
  | Dl_win -> dl (return win_rule)
  | Alg_ifp -> ifp false
  | Alg_ifp_positive -> ifp true
  | Alg_ifp_small -> ifp ~depth:2 ~graph:(graph_gen ~max_nodes:3 ~max_edges:4 ()) true
  | Alg_rec ->
    let* b1 = ifp_body_gen and* b2 = ifp_body_gen in
    let subst to_ e =
      Algebra.Expr.map_rels (fun n -> Algebra.Expr.rel (if n = "x" then to_ else n)) e
    in
    let defs =
      Algebra.Defs.make
        [ Algebra.Defs.constant "c" (subst "d" b1); Algebra.Defs.constant "d" (subst "c" b2) ]
    in
    alg ~defs ~rel:"edge" ~graph:(graph_gen ~max_nodes:4 ~max_edges:6 ()) (return (tagged "c" "d"))
  | Alg_win ->
    alg
      ~defs:(Algebra.Defs.make [ Algebra.Defs.constant "win" algebra_win_body ])
      ~rel:"move" ~graph:(graph_gen ()) (return (Algebra.Expr.rel "win"))
  | Alg_expr ->
    let* query = expr_gen
    and* updates =
      alg_updates (map (fun (r, n) -> (r, Value.int n)) (pair (oneofl [ "d1"; "d2" ]) (int_range 0 6)))
    in
    return (Alg { defs = Algebra.Defs.make []; db = algebra_db; query; updates })
  | Alg_region ->
    map (fun query -> Alg { defs = Algebra.Defs.make []; db = Algebra.Db.empty; query; updates = [] })
      region_gen
