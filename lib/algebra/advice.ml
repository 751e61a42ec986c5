type strategy = Naive | Seminaive

type t = {
  strategy : strategy;
  join : Join.mode;
  rewrite : Expr.t -> Expr.t;
  join_mode : Expr.t -> Join.mode option;
  join_par : Expr.t -> bool option;
  ifp_strategy : string -> Expr.t -> strategy option;
  refresh : round:int -> bound:(string * (unit -> int)) list -> Expr.t -> Expr.t option;
}

let none =
  { strategy = Seminaive;
    join = Join.Fused;
    rewrite = Fun.id;
    join_mode = (fun _ -> None);
    join_par = (fun _ -> None);
    ifp_strategy = (fun _ _ -> None);
    refresh = (fun ~round:_ ~bound:_ _ -> None) }

let is_none t =
  t.rewrite == none.rewrite
  && t.join_mode == none.join_mode
  && t.join_par == none.join_par
  && t.ifp_strategy == none.ifp_strategy
  && t.refresh == none.refresh
