open Recalg_kernel
module Obs = Recalg_obs.Obs
module Tuples = Edb.Tuples

exception Unsafe of string

type order = [ `Syntactic | `Stats ]

(* [`Stats] ranks the ready literals at each ordering step by their
   envelope cardinality estimate (see {!Cardest}) — smallest relation
   first. Any valid ordering derives the same facts on the same rounds,
   so the choice affects enumeration cost only, never results or fuel. *)
let order_rules ?(order = `Syntactic) ?live program ~base rules =
  let prefer =
    match order with
    | `Syntactic -> fun _ -> 0
    | `Stats ->
      let live = Option.value live ~default:(fun _ -> None) in
      Cardest.prefer_with ~live program base
  in
  List.map
    (fun (r : Rule.t) ->
      match
        Safety.evaluation_order_with program.Program.builtins ~prefer
          r.Rule.body
      with
      | Ok body -> (r, body)
      | Error msg -> raise (Unsafe msg))
    rules

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Column -> value at that column -> the section's tuples carrying it.
   Buckets are sets, so a probe enumerates in the same order as a scan. *)
type index = (int * Tuples.t Vtbl.t) list

type rel = {
  mutable full : Tuples.t;
  mutable full_size : int;  (* cached [Tuples.cardinal full]; -1: unknown *)
  mutable delta : Tuples.t;
  mutable next : Tuples.t;
  mutable full_idx : index;
  mutable delta_idx : index;
}

type t = (string, rel) Hashtbl.t
type section = Full | Delta

let create () : t = Hashtbl.create 16
let clear = Hashtbl.reset

let rel full delta =
  { full; full_size = -1; delta; next = Tuples.empty; full_idx = [];
    delta_idx = [] }

let load t pred ~full ~delta = Hashtbl.replace t pred (rel full delta)
let tuples r = function Full -> r.full | Delta -> r.delta

let section t pred sec =
  match Hashtbl.find_opt t pred with
  | Some r -> tuples r sec
  | None -> Tuples.empty

(* [next] counts for discovery; negation reads only the earlier rounds. *)
let rel_mem ~next r tup =
  Tuples.mem tup r.full || Tuples.mem tup r.delta
  || (next && Tuples.mem tup r.next)

let mem_in ~next t pred tup =
  match Hashtbl.find_opt t pred with
  | Some r -> rel_mem ~next r tup
  | None -> false

let mem = mem_in ~next:true

let discover t pred tup =
  match Hashtbl.find_opt t pred with
  | Some r -> if not (rel_mem ~next:true r tup) then r.next <- Tuples.add tup r.next
  | None ->
    Hashtbl.add t pred
      { (rel Tuples.empty Tuples.empty) with next = Tuples.singleton tup }

let index_add idx col tup =
  match List.nth_opt tup col with
  | Some key ->
    let bucket = Option.value (Vtbl.find_opt idx key) ~default:Tuples.empty in
    Vtbl.replace idx key (Tuples.add tup bucket)
  | None -> ()

(* Indexes over [full] survive promotion: the delta they absorb is added
   to their buckets instead of rebuilding them from the grown section. *)
let promote t =
  Hashtbl.iter
    (fun _ r ->
      if not (Tuples.is_empty r.delta) then begin
        List.iter
          (fun (col, idx) -> Tuples.iter (index_add idx col) r.delta)
          r.full_idx;
        r.full <- Tuples.union r.full r.delta;
        if r.full_size >= 0 then
          r.full_size <- r.full_size + Tuples.cardinal r.delta
      end;
      r.delta <- r.next;
      r.next <- Tuples.empty;
      r.delta_idx <- [])
    t

let size t pred =
  match Hashtbl.find_opt t pred with
  | Some r ->
    if r.full_size < 0 then r.full_size <- Tuples.cardinal r.full;
    r.full_size + Tuples.cardinal r.delta
  | None -> 0

let delta_nonempty t =
  Hashtbl.fold (fun _ r acc -> acc || not (Tuples.is_empty r.delta)) t false

let fold f t acc =
  Hashtbl.fold
    (fun pred r acc -> f pred ~full:r.full ~delta:r.delta ~next:r.next acc)
    t acc

let index_of r sec col =
  let indexes = match sec with Full -> r.full_idx | Delta -> r.delta_idx in
  match List.assoc_opt col indexes with
  | Some idx -> idx
  | None ->
    let idx = Vtbl.create 64 in
    Tuples.iter (index_add idx col) (tuples r sec);
    (match sec with
    | Full -> r.full_idx <- (col, idx) :: r.full_idx
    | Delta -> r.delta_idx <- (col, idx) :: r.delta_idx);
    idx

let probe_rel r sec col key =
  if Tuples.is_empty (tuples r sec) then Tuples.empty
  else Option.value (Vtbl.find_opt (index_of r sec col) key) ~default:Tuples.empty

let probe t pred sec col key =
  match Hashtbl.find_opt t pred with
  | Some r -> probe_rel r sec col key
  | None -> Tuples.empty

(* ------------------------------------------------------------------ *)
(* The body matcher. *)

(* Each literal with, for a positive one, its probe column and key term. *)
type body = {
  builtins : Builtins.t;
  steps : (Literal.t * (int * Dterm.t) option) list;
}

(* A literal that matches binds every variable it mentions: a positive
   atom or an equality either binds its free variables or fails. So the
   variables bound before a literal are exactly those of the positive
   atoms and equalities ahead of it, on every substitution that reaches
   it, and an argument made only of them always evaluates there — unless
   an interpreted function is undefined on it, in which case no tuple
   matches the literal either. *)
let compile builtins lits =
  let bound = Hashtbl.create 8 in
  let is_bound t = List.for_all (Hashtbl.mem bound) (Dterm.vars t) in
  let bind t = List.iter (fun x -> Hashtbl.replace bound x ()) (Dterm.vars t) in
  let step lit =
    let rec key i = function
      | [] -> None
      | t :: args -> if is_bound t then Some (i, t) else key (i + 1) args
    in
    match lit with
    | Literal.Pos a ->
      let k = key 0 a.Literal.args in
      List.iter bind a.Literal.args;
      (lit, k)
    | Literal.Eq (t1, t2) ->
      bind t1;
      bind t2;
      (lit, None)
    | Literal.Neg _ | Literal.Neq _ -> (lit, None)
  in
  { builtins; steps = List.map step lits }

type probes = { mutable hits : int; mutable misses : int; mutable scans : int }

let probes () = { hits = 0; misses = 0; scans = 0 }

(* The sections a positive literal at body position [i] reads. *)
let sections ~delta i =
  match delta with
  | Some d when d = i -> [ Delta ]
  | Some d when d > i -> [ Full ]
  | Some _ | None -> [ Full; Delta ]

let solve t probes { builtins; steps } ~delta k =
  let count f = if Obs.enabled () then f probes in
  let rec go steps i subst =
    match steps with
    | [] -> k subst
    | (lit, key) :: rest -> (
      let next subst = go rest (i + 1) subst in
      let bind t v = Option.iter next (Dterm.match_value builtins t v subst) in
      match lit with
      | Literal.Pos a -> (
        let rec match_args subst args vals =
          match args, vals with
          | [], [] -> next subst
          | t :: args', v :: vals' -> (
            match Dterm.match_value builtins t v subst with
            | Some subst' -> match_args subst' args' vals'
            | None -> ())
          | _, _ -> ()
        in
        let try_tuple tup = match_args subst a.Literal.args tup in
        let key =
          Option.map (fun (col, term) -> (col, Dterm.eval builtins subst term)) key
        in
        match Hashtbl.find_opt t a.Literal.pred with
        | None -> ()
        | Some r ->
          List.iter
            (fun sec ->
              let set = tuples r sec in
              if not (Tuples.is_empty set) then
                match key with
                | Some (_, None) -> ()
                | Some (col, Some v) ->
                  let bucket = probe_rel r sec col v in
                  if Tuples.is_empty bucket then
                    count (fun p -> p.misses <- p.misses + 1)
                  else begin
                    count (fun p -> p.hits <- p.hits + 1);
                    Tuples.iter try_tuple bucket
                  end
                | None ->
                  count (fun p -> p.scans <- p.scans + 1);
                  Tuples.iter try_tuple set)
            (sections ~delta i))
      | Literal.Neg a -> (
        match Literal.ground_atom builtins subst a with
        | Some (pred, args) ->
          if not (mem_in ~next:false t pred args) then next subst
        | None -> ())
      | Literal.Eq (t1, t2) -> (
        match Dterm.eval builtins subst t1, Dterm.eval builtins subst t2 with
        | Some v1, Some v2 -> if Value.equal v1 v2 then next subst
        | Some v, None -> bind t2 v
        | None, Some v -> bind t1 v
        | None, None -> ())
      | Literal.Neq (t1, t2) -> (
        match Dterm.eval builtins subst t1, Dterm.eval builtins subst t2 with
        | Some v1, Some v2 -> if not (Value.equal v1 v2) then next subst
        | _, _ -> ()))
  in
  go steps 0 Subst.empty

let prepare t body ~delta =
  List.iteri
    (fun i (lit, key) ->
      match lit, key with
      | Literal.Pos a, Some (col, _) -> (
        match Hashtbl.find_opt t a.Literal.pred with
        | Some r ->
          List.iter
            (fun sec ->
              if not (Tuples.is_empty (tuples r sec)) then
                ignore (index_of r sec col))
            (sections ~delta i)
        | None -> ())
      | _, _ -> ())
    body.steps

let delta_tasks t plans =
  List.concat_map
    (fun (payload, body) ->
      List.concat
        (List.mapi
           (fun i (lit, _) ->
             match lit with
             | Literal.Pos a
               when not (Tuples.is_empty (section t a.Literal.pred Delta)) ->
               [ (payload, body, Some i) ]
             | Literal.Pos _ | Literal.Neg _ | Literal.Eq _ | Literal.Neq _ ->
               [])
           body.steps))
    plans
