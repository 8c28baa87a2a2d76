type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | SEMI
  | EOF

exception Lex_error of string * int

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let rec go i =
    if i >= n then emit EOF
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '-' when i + 1 < n && input.[i + 1] = '-' ->
        let rec skip j = if j < n && input.[j] <> '\n' then skip (j + 1) else j in
        go (skip (i + 2))
      | '(' -> emit LPAREN; go (i + 1)
      | ')' -> emit RPAREN; go (i + 1)
      | ',' -> emit COMMA; go (i + 1)
      | '.' when not (i + 1 < n && is_digit input.[i + 1]) -> emit DOT; go (i + 1)
      | '*' -> emit STAR; go (i + 1)
      | '+' -> emit PLUS; go (i + 1)
      | '-' -> emit MINUS; go (i + 1)
      | '/' -> emit SLASH; go (i + 1)
      | ';' -> emit SEMI; go (i + 1)
      | '=' -> emit EQ; go (i + 1)
      | '!' when i + 1 < n && input.[i + 1] = '=' -> emit NE; go (i + 2)
      | '<' when i + 1 < n && input.[i + 1] = '>' -> emit NE; go (i + 2)
      | '<' when i + 1 < n && input.[i + 1] = '=' -> emit LE; go (i + 2)
      | '<' -> emit LT; go (i + 1)
      | '>' when i + 1 < n && input.[i + 1] = '=' -> emit GE; go (i + 2)
      | '>' -> emit GT; go (i + 1)
      | '\'' ->
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then raise (Lex_error ("unterminated string literal", i))
          else if input.[j] = '\'' then
            if j + 1 < n && input.[j + 1] = '\'' then begin
              Buffer.add_char buf '\'';
              str (j + 2)
            end
            else j + 1
          else begin
            Buffer.add_char buf input.[j];
            str (j + 1)
          end
        in
        let next = str (i + 1) in
        emit (STRING (Buffer.contents buf));
        go next
      | c when is_digit c || (c = '.' && i + 1 < n && is_digit input.[i + 1]) ->
        let rec num j seen_dot =
          if j < n && (is_digit input.[j] || (input.[j] = '.' && not seen_dot)) then
            num (j + 1) (seen_dot || input.[j] = '.')
          else j
        in
        let stop = num i false in
        let text = String.sub input i (stop - i) in
        if String.contains text '.' then emit (FLOAT (float_of_string text))
        else (
          match int_of_string_opt text with
          | Some k -> emit (INT k)
          | None -> raise (Lex_error ("integer literal out of range: " ^ text, i)));
        go stop
      | c when is_ident_start c ->
        let rec ident j = if j < n && is_ident_char input.[j] then ident (j + 1) else j in
        let stop = ident i in
        emit (IDENT (String.sub input i (stop - i)));
        go stop
      | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, i))
  in
  go 0;
  Array.of_list (List.rev !tokens)

let token_to_string = function
  | IDENT s -> s
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | STRING s -> "'" ^ s ^ "'"
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | STAR -> "*"
  | PLUS -> "+"
  | MINUS -> "-"
  | SLASH -> "/"
  | EQ -> "="
  | NE -> "<>"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | SEMI -> ";"
  | EOF -> "<eof>"
