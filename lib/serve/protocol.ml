(* Line-delimited JSON protocol: one request object per line in, one
   response object per line out, correlated by a client-chosen [id] (so a
   client may pipeline requests; responses to a session's queries may come
   back out of order under concurrent workers).

   Requests:
     {"id":N, "op":"ping"}
     {"id":N, "op":"query", "sql":"SELECT ...", "analyze":false}
     {"id":N, "op":"set", "config":{"layout":"column", "workers":2, ...}}
     {"id":N, "op":"append", "table":"t", "rows":[[1,"a"], ...]}
     {"id":N, "op":"stats"}
     {"id":N, "op":"metrics"}
     {"id":N, "op":"shutdown"}

   Responses: {"id":N, "ok":true, ...} or
     {"id":N, "ok":false, "code":"overloaded"|"bad_request"|"error",
      "error":"..."} — [overloaded] is the admission-control backpressure
   signal: the request was rejected without executing and may be retried. *)

open Relalg
module Json = Obs.Json

(* Where a server listens / a client connects. *)
type addr = [ `Unix of string | `Tcp of string * int ]

let addr_to_string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* "unix:/path", "tcp:host:port", bare "/path" (unix) or "host:port". *)
let addr_of_string s =
  match String.index_opt s ':' with
  | None -> `Unix s
  | Some i ->
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match scheme with
    | "unix" -> `Unix rest
    | "tcp" ->
      (match String.rindex_opt rest ':' with
      | Some j ->
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        (match int_of_string_opt port with
        | Some p -> `Tcp ((if host = "" then "127.0.0.1" else host), p)
        | None -> invalid_arg ("bad port in address: " ^ s))
      | None -> invalid_arg ("tcp address needs host:port: " ^ s))
    | host ->
      (match int_of_string_opt rest with
      | Some p -> `Tcp (host, p)
      | None -> `Unix s))

type request =
  | Ping
  | Query of { sql : string; analyze : bool }
  | Set of (string * Json.t) list
  | Append of { table : string; rows : Json.t list }
  | Stats
  | Metrics
  | Shutdown

type envelope = { rq_id : int; rq : request }

let value_to_json v =
  match v with
  | Value.Null -> Json.Null
  | Value.Bool b -> Json.Bool b
  | Value.Int i -> Json.Num (float_of_int i)
  | Value.Float f -> Json.Num f
  | Value.Str s -> Json.Str s

(* JSON numbers don't distinguish 2 from 2.0; integral numbers decode as
   [Int] (appending float-typed columns with integral values loses the
   float tag — send a fractional part or accept the coercion). *)
let value_of_json j =
  match j with
  | Json.Null -> Value.Null
  | Json.Bool b -> Value.Bool b
  | Json.Num x ->
    if Float.is_integer x && Float.abs x < 1e15 then Value.Int (int_of_float x)
    else Value.Float x
  | Json.Str s -> Value.Str s
  | Json.Arr _ | Json.Obj _ -> invalid_arg "value_of_json: not a scalar"

let relation_to_json ?max_rows rel =
  let cols =
    List.map (fun c -> Json.Str c.Schema.name) (Schema.cols rel.Relation.schema)
  in
  let rows = Relation.rows rel in
  let n = Array.length rows in
  let shown = match max_rows with Some m -> min m n | None -> n in
  let out = ref [] in
  for i = shown - 1 downto 0 do
    out :=
      Json.Arr (Array.to_list (Array.map value_to_json rows.(i))) :: !out
  done;
  [
    ("columns", Json.Arr cols);
    ("rows", Json.Arr !out);
    ("rows_n", Json.Num (float_of_int n));
  ]

let int_member k j =
  match Json.member k j with
  | Some (Json.Num x) -> Some (int_of_float x)
  | _ -> None

let str_member k j =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let bool_member k j =
  match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None

let parse_request j =
  let id = Option.value (int_member "id" j) ~default:0 in
  let req =
    match str_member "op" j with
    | Some "ping" -> Ok Ping
    | Some "query" ->
      (match str_member "sql" j with
       | Some sql ->
         Ok (Query { sql; analyze = Option.value (bool_member "analyze" j) ~default:false })
       | None -> Error "query: missing sql")
    | Some "set" ->
      (match Json.member "config" j with
       | Some (Json.Obj kvs) -> Ok (Set kvs)
       | _ -> Error "set: missing config object")
    | Some "append" ->
      (match str_member "table" j, Json.member "rows" j with
       | Some table, Some (Json.Arr rows) -> Ok (Append { table; rows })
       | _ -> Error "append: missing table or rows")
    | Some "stats" -> Ok Stats
    | Some "metrics" -> Ok Metrics
    | Some "shutdown" -> Ok Shutdown
    | Some other -> Error ("unknown op: " ^ other)
    | None -> Error "missing op"
  in
  Result.map (fun rq -> { rq_id = id; rq }) req

let encode_request { rq_id; rq } =
  let base = [ ("id", Json.Num (float_of_int rq_id)) ] in
  let fields =
    match rq with
    | Ping -> [ ("op", Json.Str "ping") ]
    | Query { sql; analyze } ->
      [ ("op", Json.Str "query"); ("sql", Json.Str sql) ]
      @ if analyze then [ ("analyze", Json.Bool true) ] else []
    | Set kvs -> [ ("op", Json.Str "set"); ("config", Json.Obj kvs) ]
    | Append { table; rows } ->
      [ ("op", Json.Str "append"); ("table", Json.Str table); ("rows", Json.Arr rows) ]
    | Stats -> [ ("op", Json.Str "stats") ]
    | Metrics -> [ ("op", Json.Str "metrics") ]
    | Shutdown -> [ ("op", Json.Str "shutdown") ]
  in
  Json.Obj (base @ fields)

let response ~id ~ok fields =
  Json.Obj (("id", Json.Num (float_of_int id)) :: ("ok", Json.Bool ok) :: fields)

let response_ok ~id fields = response ~id ~ok:true fields

let response_error ~id ~code msg =
  response ~id ~ok:false [ ("code", Json.Str code); ("error", Json.Str msg) ]

(* Longest request line the server reads: far above any append burst, yet a
   client that never sends a newline cannot grow server memory without
   limit.  A longer line is answered [bad_request] and its connection
   closed. *)
let max_line_bytes = 16 * 1024 * 1024

(* The next line of [ic] without its newline ([`Eof] once the channel is
   done, a final unterminated line first), or [`Too_long] as soon as the
   line passes [max_line_bytes]. *)
let read_line ic =
  let b = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> `Line (Buffer.contents b)
    | c when Buffer.length b < max_line_bytes ->
      Buffer.add_char b c;
      go ()
    | _ -> `Too_long
    | exception End_of_file -> if Buffer.length b = 0 then `Eof else `Line (Buffer.contents b)
  in
  go ()
