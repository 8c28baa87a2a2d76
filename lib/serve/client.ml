(* Synchronous client for the query server: one request on the wire at a
   time, response matched by id.  Each [t] owns one connection and is NOT
   itself thread-safe — concurrent clients (perfbench's serving
   workloads, the differential fuzz tests) each open their own. *)

open Relalg
module Json = Obs.Json
module P = Protocol

type t = {
  ic : in_channel;
  oc : out_channel;
  mutable next_id : int;
  session : int;  (* server-assigned, from the hello line *)
}

exception Server_error of { code : string; message : string }

let connect (addr : P.addr) =
  let fd =
    match addr with
    | `Unix path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
    | `Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let ip =
        try Unix.inet_addr_of_string host
        with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.connect fd (Unix.ADDR_INET (ip, port));
      fd
  in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let hello = Json.of_string (input_line ic) in
  let session =
    match Json.member "session" hello with
    | Some (Json.Num n) -> int_of_float n
    | _ -> 0
  in
  { ic; oc; next_id = 1; session }

let session t = t.session

(* Closing the output channel closes the descriptor; [ic] shares it and is
   left unclosed, so the descriptor is closed exactly once.  A second close
   could hit a descriptor another thread has just opened under the same
   number. *)
let close t = close_out_noerr t.oc

(* Send one request and block for its response.  Raises {!Server_error} on
   an [ok:false] response, so call sites read straight-line. *)
let rpc t rq =
  let id = t.next_id in
  t.next_id <- id + 1;
  output_string t.oc (Json.to_string (P.encode_request { P.rq_id = id; rq }));
  output_char t.oc '\n';
  flush t.oc;
  let rec read_response () =
    let j = Json.of_string (input_line t.ic) in
    match Json.member "id" j with
    | Some (Json.Num n) when int_of_float n = id -> j
    | _ -> read_response ()  (* unsolicited/stale line; keep looking *)
  in
  let j = read_response () in
  match Json.member "ok" j with
  | Some (Json.Bool true) -> j
  | _ ->
    let str k =
      match Json.member k j with Some (Json.Str s) -> s | _ -> ""
    in
    raise (Server_error { code = str "code"; message = str "error" })

let ping t = ignore (rpc t P.Ping)
let query ?(analyze = false) t sql = rpc t (P.Query { sql; analyze })
let set t kvs = rpc t (P.Set kvs)
let append t table rows = rpc t (P.Append { table; rows })
let stats t = rpc t P.Stats
let metrics t = rpc t P.Metrics

let shutdown t =
  try ignore (rpc t P.Shutdown) with End_of_file | Sys_error _ -> ()

(* Decode a query response's row payload back into a relation (column
   names keep any qualifiers verbatim; result comparison in the tests goes
   through [Runner.same_result], which ignores names). *)
let relation_of_response j =
  let cols =
    match Json.member "columns" j with
    | Some (Json.Arr cs) ->
      List.map (function Json.Str s -> s | _ -> invalid_arg "columns") cs
    | _ -> invalid_arg "response has no columns"
  in
  let rows =
    match Json.member "rows" j with
    | Some (Json.Arr rs) ->
      List.map
        (function
          | Json.Arr cells -> Array.of_list (List.map P.value_of_json cells)
          | _ -> invalid_arg "rows")
        rs
    | _ -> invalid_arg "response has no rows"
  in
  Relation.of_rows (Schema.of_names cols) rows

let cached j = Json.member "cached" j = Some (Json.Bool true)

let ms j =
  match Json.member "ms" j with Some (Json.Num x) -> x | _ -> 0.

let rows_n j =
  match Json.member "rows_n" j with
  | Some (Json.Num x) -> int_of_float x
  | _ -> 0
