open Recalg_kernel

type program = { defs : Defs.t; query : Expr.t option }

type token =
  | IDENT of string
  | INT of int
  | LPAREN | RPAREN
  | LBRACKET | RBRACKET
  | LBRACE | RBRACE
  | COMMA | SEMI | DOT | DOLLAR
  | PLUS | MINUS | CROSS
  | EQUAL | NOTEQUAL | LT | LEQ
  | EOF

exception Parse_error of string

let error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

let keywords = [ "let"; "query"; "sel"; "map"; "ifp"; "id"; "and"; "or"; "not";
                 "true"; "false"; "is"; "arg"; "x" ]

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '%' then
      while !i < n && src.[!i] <> '\n' do incr i done
    else if c = '(' then (emit LPAREN; incr i)
    else if c = ')' then (emit RPAREN; incr i)
    else if c = '[' then (emit LBRACKET; incr i)
    else if c = ']' then (emit RBRACKET; incr i)
    else if c = '{' then (emit LBRACE; incr i)
    else if c = '}' then (emit RBRACE; incr i)
    else if c = ',' then (emit COMMA; incr i)
    else if c = ';' then (emit SEMI; incr i)
    else if c = '.' then (emit DOT; incr i)
    else if c = '$' then (emit DOLLAR; incr i)
    else if c = '+' then (emit PLUS; incr i)
    else if c = '-' then (emit MINUS; incr i)
    else if c = '=' then (emit EQUAL; incr i)
    else if c = '!' && !i + 1 < n && src.[!i + 1] = '=' then (emit NOTEQUAL; i := !i + 2)
    else if c = '<' && !i + 1 < n && src.[!i + 1] = '=' then (emit LEQ; i := !i + 2)
    else if c = '<' then (emit LT; incr i)
    else if (c >= '0' && c <= '9')
            || (c = '-' && !i + 1 < n && src.[!i + 1] >= '0' && src.[!i + 1] <= '9')
    then begin
      let start = !i in
      incr i;
      while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do incr i done;
      let lit = String.sub src start (!i - start) in
      match int_of_string_opt lit with
      | Some n -> emit (INT n)
      | None -> error "integer literal %s out of range" lit
    end
    else if is_ident c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      if String.equal word "x" then emit CROSS else emit (IDENT word)
    end
    else error "unexpected character %C at offset %d" c !i
  done;
  emit EOF;
  List.rev !tokens

type stream = { mutable toks : token list }

let peek s = match s.toks with t :: _ -> t | [] -> EOF
let peek2 s = match s.toks with _ :: t :: _ -> t | _ -> EOF
let advance s = match s.toks with _ :: rest -> s.toks <- rest | [] -> ()

let expect s tok name = if peek s = tok then advance s else error "expected %s" name

let ident s =
  match peek s with
  | IDENT w -> advance s; w
  | _ -> error "expected an identifier"

(* --- values (inside set literals) --- *)

let rec parse_value s =
  match peek s with
  | INT k -> advance s; Value.int k
  | IDENT w -> advance s; Value.sym w
  | LBRACKET ->
    advance s;
    let vs = if peek s = RBRACKET then [] else parse_value_list s in
    expect s RBRACKET "]";
    Value.tuple vs
  | LBRACE ->
    advance s;
    let vs = if peek s = RBRACE then [] else parse_value_list s in
    expect s RBRACE "}";
    Value.set vs
  | _ -> error "expected a value"

and parse_value_list s =
  let first = parse_value s in
  if peek s = COMMA then (advance s; first :: parse_value_list s) else [ first ]

(* --- element functions --- *)

let proj_of_ident w =
  if String.length w > 2 && String.sub w 0 2 = "pi" then
    int_of_string_opt (String.sub w 2 (String.length w - 2))
  else None

let rec parse_efun s =
  let base = parse_efun_atom s in
  if peek s = DOT then begin
    advance s;
    let rest = parse_efun s in
    Efun.Compose (base, rest)
  end
  else base

and parse_efun_atom s =
  match peek s with
  | LPAREN ->
    advance s;
    let f = parse_efun s in
    expect s RPAREN ")";
    f
  | IDENT "id" -> advance s; Efun.Id
  | INT k -> advance s; Efun.Const (Value.int k)
  | LBRACKET ->
    advance s;
    let fs = if peek s = RBRACKET then [] else parse_efun_list s in
    expect s RBRACKET "]";
    Efun.Tuple_of fs
  | LBRACE ->
    (* set constant used as an element function *)
    let v = parse_value s in
    Efun.Const v
  | IDENT "arg" ->
    advance s;
    expect s LPAREN "(";
    let name = ident s in
    expect s COMMA ",";
    let idx = match peek s with
      | INT k -> advance s; k
      | _ -> error "expected an index in arg(name, i)"
    in
    expect s RPAREN ")";
    Efun.Arg (name, idx)
  | IDENT w -> (
    match proj_of_ident w with
    | Some k -> advance s; Efun.Proj k
    | None ->
      advance s;
      if peek s = LPAREN then begin
        advance s;
        let args = if peek s = RPAREN then [] else parse_efun_list s in
        expect s RPAREN ")";
        Efun.App (w, args)
      end
      else Efun.Const (Value.sym w))
  | _ -> error "expected an element function"

and parse_efun_list s =
  let first = parse_efun s in
  if peek s = COMMA then (advance s; first :: parse_efun_list s) else [ first ]

(* --- selection tests --- *)

let rec parse_pred s = parse_pred_or s

and parse_pred_or s =
  let left = parse_pred_and s in
  match peek s with
  | IDENT "or" -> advance s; Pred.Or (left, parse_pred_or s)
  | _ -> left

and parse_pred_and s =
  let left = parse_pred_atom s in
  match peek s with
  | IDENT "and" -> advance s; Pred.And (left, parse_pred_and s)
  | _ -> left

and parse_pred_atom s =
  match peek s with
  | IDENT "true" -> advance s; Pred.True
  | IDENT "false" -> advance s; Pred.False
  | IDENT "not" -> advance s; Pred.Not (parse_pred_atom s)
  | IDENT "is" ->
    advance s;
    expect s LPAREN "(";
    let name = ident s in
    expect s COMMA ",";
    let arity = match peek s with
      | INT k -> advance s; k
      | _ -> error "expected an arity in is(name, arity, f)"
    in
    expect s COMMA ",";
    let f = parse_efun s in
    expect s RPAREN ")";
    Pred.Is_cstr (name, arity, f)
  | LPAREN -> (
    (* Ambiguous: "(test)" or a parenthesised element function starting a
       comparison, e.g. "(pi2 . pi1) = pi2". Try the test reading first
       and backtrack on failure. *)
    let saved = s.toks in
    match
      (try
         advance s;
         let p = parse_pred s in
         expect s RPAREN ")";
         Some p
       with Parse_error _ -> None)
    with
    | Some p -> p
    | None ->
      s.toks <- saved;
      parse_comparison s)
  | _ -> parse_comparison s

and parse_comparison s =
  let f = parse_efun s in
  match peek s with
  | EQUAL -> advance s; Pred.Eq (f, parse_efun s)
  | NOTEQUAL -> advance s; Pred.Neq (f, parse_efun s)
  | LT -> advance s; Pred.Lt (f, parse_efun s)
  | LEQ -> advance s; Pred.Leq (f, parse_efun s)
  | IDENT "in" -> advance s; Pred.Mem (f, parse_efun s)
  | _ -> error "expected a comparison operator"

(* --- expressions --- *)

let rec parse_expr_s s =
  let left = parse_expr_atom s in
  match peek s with
  | PLUS -> advance s; Expr.Union (left, parse_expr_s s)
  | MINUS -> advance s; Expr.Diff (left, parse_expr_s s)
  | CROSS -> advance s; Expr.Product (left, parse_expr_s s)
  | _ -> left

and parse_expr_atom s =
  match peek s with
  | LPAREN ->
    advance s;
    let e = parse_expr_s s in
    expect s RPAREN ")";
    e
  | LBRACE ->
    let v = parse_value s in
    if not (Value.is_set v) then error "a literal expression must be a set";
    Expr.Lit v
  | DOLLAR ->
    advance s;
    Expr.Param (ident s)
  | IDENT "sel" ->
    advance s;
    expect s LBRACKET "[";
    let p = parse_pred s in
    expect s RBRACKET "]";
    expect s LPAREN "(";
    let e = parse_expr_s s in
    expect s RPAREN ")";
    Expr.Select (p, e)
  | IDENT "map" ->
    advance s;
    expect s LBRACKET "[";
    let f = parse_efun s in
    expect s RBRACKET "]";
    expect s LPAREN "(";
    let e = parse_expr_s s in
    expect s RPAREN ")";
    Expr.Map (f, e)
  | IDENT "ifp" ->
    advance s;
    let v = ident s in
    expect s DOT ".";
    let e = parse_expr_s s in
    Expr.Ifp (v, e)
  | IDENT w -> (
    match proj_of_ident w with
    | Some k ->
      advance s;
      expect s LPAREN "(";
      let e = parse_expr_s s in
      expect s RPAREN ")";
      Expr.Map (Efun.Proj k, e)
    | None ->
      advance s;
      if peek s = LPAREN then begin
        advance s;
        let args = if peek s = RPAREN then [] else parse_expr_list s in
        expect s RPAREN ")";
        Expr.Call (w, args)
      end
      else Expr.Rel w)
  | _ -> error "expected an expression"

and parse_expr_list s =
  let first = parse_expr_s s in
  if peek s = COMMA then (advance s; first :: parse_expr_list s) else [ first ]

(* --- programs --- *)

let parse_def s =
  expect s (IDENT "let") "let";
  let name = ident s in
  if List.mem name keywords then error "%s is a reserved word" name;
  let params =
    if peek s = LPAREN then begin
      advance s;
      let rec go () =
        let p = ident s in
        if peek s = COMMA then (advance s; p :: go ()) else [ p ]
      in
      let ps = go () in
      expect s RPAREN ")";
      ps
    end
    else []
  in
  expect s EQUAL "=";
  let body = parse_expr_s s in
  expect s SEMI ";";
  Defs.define name params body

let parse_program_s builtins s =
  let rec go defs query =
    match peek s with
    | EOF -> { defs = Defs.make ~builtins (List.rev defs); query }
    | IDENT "let" -> go (parse_def s :: defs) query
    | IDENT "query" ->
      advance s;
      let e = parse_expr_s s in
      expect s SEMI ";";
      if query <> None then error "multiple queries";
      go defs (Some e)
    | _ -> error "expected 'let' or 'query'"
  in
  go [] None

let wrap f = try Ok (f ()) with Parse_error msg -> Error msg

let parse_expr ?builtins:_ src =
  wrap (fun () ->
      let s = { toks = tokenize src } in
      let e = parse_expr_s s in
      if peek s <> EOF then error "trailing input after expression";
      e)

let parse_program ?(builtins = Builtins.default) src =
  wrap (fun () -> parse_program_s builtins { toks = tokenize src })

let parse_program_exn ?builtins src =
  match parse_program ?builtins src with
  | Ok p -> p
  | Error msg -> invalid_arg ("Algebra parser: " ^ msg)

let _ = peek2
