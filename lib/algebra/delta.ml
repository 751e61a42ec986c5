open Recalg_kernel
module Obs = Recalg_obs.Obs

type strategy = Advice.strategy = Naive | Seminaive

let is_empty v = Value.equal v Value.empty_set

(* Does [e] mention any of [names] free? Respects Ifp shadowing. *)
let touches names e =
  let rec go bound e =
    match e with
    | Expr.Rel n -> (not (List.mem n bound)) && List.mem n names
    | Expr.Lit _ | Expr.Param _ -> false
    | Expr.Union (a, b) | Expr.Diff (a, b) | Expr.Product (a, b) ->
      go bound a || go bound b
    | Expr.Select (_, a) | Expr.Map (_, a) -> go bound a
    | Expr.Ifp (x, a) -> go (x :: bound) a
    | Expr.Call (_, args) -> List.exists (go bound) args
  in
  go [] e

let eligible names e = Positivity.has_linear_occurrence names e

let derive ~builtins ?(advice = Advice.none) ~eval ?eval_diff_right ~deltas e =
  let eval_diff_right = Option.value eval_diff_right ~default:eval in
  let names = List.map fst deltas in
  let rec go e =
    if not (touches names e) then Value.empty_set
    else
      match e with
      | Expr.Rel n -> (
        match List.assoc_opt n deltas with
        | Some d -> d
        | None -> Value.empty_set)
      | Expr.Union (a, b) -> Value.union (go a) (go b)
      | Expr.Product (a, b) ->
        (* Δ(a × b) = Δa × b ∪ a × Δb, against the *current* values of the
           unchanged factors — Δa × Δb is covered by either term. *)
        let da = go a and db = go b in
        let left = if is_empty da then Value.empty_set else Value.product da (eval b) in
        let right = if is_empty db then Value.empty_set else Value.product (eval a) db in
        Value.union left right
      | Expr.Select (p, a) -> (
        (* Fused delta: Δ(σ_p(a × b)) = σ_p(Δa × b) ∪ σ_p(a × Δb), each
           side a hash join probing the *current* value of the unchanged
           factor — the same split as the Product rule, without ever
           materialising a product. *)
        let node_join =
          Option.value (advice.Advice.join_mode e) ~default:advice.Advice.join
        in
        let par = advice.Advice.join_par e in
        let fused =
          match node_join, a with
          | Join.Fused, Expr.Product (ea, eb) -> (
            match Join.plan p with
            | Some jp ->
              Obs.count "plan/fused" 1;
              let da = go ea and db = go eb in
              let left =
                if is_empty da then Value.empty_set
                else Join.exec ?par builtins jp da (eval eb)
              in
              let right =
                if is_empty db then Value.empty_set
                else Join.exec ?par builtins jp (eval ea) db
              in
              Some (Value.union left right)
            | None -> None)
          | (Join.Fused | Join.Unfused), _ -> None
        in
        match fused with
        | Some v -> v
        | None ->
          (match a with
          | Expr.Product _ -> Obs.count "plan/unfused" 1
          | _ -> ());
          Value.filter (fun v -> Pred.eval builtins p v = Some true) (go a))
      | Expr.Map (f, a) -> Value.filter_map_set (Efun.apply builtins f) (go a)
      | Expr.Diff (a, b) ->
        if touches names b then
          (* Non-linear: subtraction shrinks as its right side grows, so
             delta propagation is unsound here — re-evaluate in full. The
             result is still a valid delta (superset of the new tuples,
             subset of the current value). *)
          eval e
        else
          let da = go a in
          if is_empty da then Value.empty_set
          else Value.diff da (eval_diff_right b)
      | Expr.Ifp _ | Expr.Call _ ->
        (* Opaque to distribution: a nested fixpoint (or uninlined call)
           over a changed name is re-evaluated in full. *)
        eval e
      | Expr.Lit _ | Expr.Param _ ->
        (* Unreachable: neither mentions a tracked name. *)
        Value.empty_set
  in
  go e
