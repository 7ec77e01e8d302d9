open Mediactl_core

(* The control plane: newline-delimited ASCII requests from an operator
   (or the [mediactl_ctl] CLI) to a running daemon.  One line, one
   request; the daemon answers each with a single [OK ...] or [ERR ...]
   line — except [STATUS], which emits one [CALL ...] line per call
   before its [OK], and [WAIT], whose answer arrives when the awaited
   condition (or its timeout) does.

   Grammar (tokens separated by single spaces, ids free of whitespace):

     PING
     CREATE <id> <open|close|hold> <open|close|hold>
     DIAL <id> <unix:PATH|tcp:HOST:PORT> <kind> <kind>
     HOLD <id>
     RESUME <id>
     TEARDOWN <id>
     STATUS [<id>]
     WAIT <id> <flowing|closed> <timeout-ms>
     QUIT *)

type request =
  | Ping
  | Create of { id : string; left : Semantics.end_kind; right : Semantics.end_kind }
  | Dial of {
      id : string;
      addr : Transport.addr;
      left : Semantics.end_kind;
      right : Semantics.end_kind;
    }
  | Hold of string
  | Resume of string
  | Teardown of string
  | Status of string option
  | Wait of { id : string; what : [ `Flowing | `Closed ]; timeout_ms : float }
  | Quit

let kind_of_string = function
  | "open" -> Some Semantics.Open_end
  | "close" -> Some Semantics.Close_end
  | "hold" -> Some Semantics.Hold_end
  | _ -> None

let kind_to_string = Wire.kind_name

let what_to_string = function `Flowing -> "flowing" | `Closed -> "closed"

let parse line =
  let err fmt = Printf.ksprintf Result.error fmt in
  let kind s k = match kind_of_string s with
    | Some kind -> k kind
    | None -> err "bad end kind %S: expected open, close, or hold" s
  in
  match String.split_on_char ' ' (String.trim line) with
  | [ "PING" ] -> Ok Ping
  | [ "CREATE"; id; l; r ] ->
    kind l (fun left -> kind r (fun right -> Ok (Create { id; left; right })))
  | [ "DIAL"; id; a; l; r ] -> (
    match Transport.addr_of_string a with
    | Ok addr -> kind l (fun left -> kind r (fun right -> Ok (Dial { id; addr; left; right })))
    | Error e -> Error e)
  | [ "HOLD"; id ] -> Ok (Hold id)
  | [ "RESUME"; id ] -> Ok (Resume id)
  | [ "TEARDOWN"; id ] -> Ok (Teardown id)
  | [ "STATUS" ] -> Ok (Status None)
  | [ "STATUS"; id ] -> Ok (Status (Some id))
  | [ "WAIT"; id; w; t ] -> (
    let what =
      match w with "flowing" -> Some `Flowing | "closed" -> Some `Closed | _ -> None
    in
    match (what, float_of_string_opt t) with
    | Some what, Some timeout_ms when Float.is_finite timeout_ms && timeout_ms > 0.0 ->
      Ok (Wait { id; what; timeout_ms })
    | None, _ -> err "bad wait condition %S: expected flowing or closed" w
    | _, (Some _ | None) -> err "bad wait timeout %S: expected finite positive milliseconds" t)
  | [ "QUIT" ] -> Ok Quit
  | verb :: _ -> err "unknown or malformed request %S" verb
  | [] -> err "empty request"

let render = function
  | Ping -> "PING"
  | Create { id; left; right } ->
    Printf.sprintf "CREATE %s %s %s" id (kind_to_string left) (kind_to_string right)
  | Dial { id; addr; left; right } ->
    Printf.sprintf "DIAL %s %s %s %s" id (Transport.addr_to_string addr)
      (kind_to_string left) (kind_to_string right)
  | Hold id -> "HOLD " ^ id
  | Resume id -> "RESUME " ^ id
  | Teardown id -> "TEARDOWN " ^ id
  | Status None -> "STATUS"
  | Status (Some id) -> "STATUS " ^ id
  | Wait { id; what; timeout_ms } ->
    Printf.sprintf "WAIT %s %s %g" id (what_to_string what) timeout_ms
  | Quit -> "QUIT"

(* Response conventions, shared with the CLI. *)

let ok fmt = Printf.ksprintf (fun s -> "OK " ^ s) fmt
let error fmt = Printf.ksprintf (fun s -> "ERR " ^ s) fmt

let is_ok line = String.length line >= 2 && String.equal (String.sub line 0 2) "OK"

(* How many lines answer one request: STATUS is the only multi-line
   response, terminated by its OK/ERR line; everything else is one
   line.  [request] uses this to know when a request is fully answered. *)
let final_line line =
  String.length line < 5 || not (String.equal (String.sub line 0 5) "CALL ")

(* A blocking line-at-a-time client. *)

type client = { fd : Unix.file_descr; mutable buf : string }

let connect addr = { fd = Transport.connect addr; buf = "" }
let close cl = Transport.close_quiet cl.fd

let rec read_line cl =
  match String.index_opt cl.buf '\n' with
  | Some i ->
    let line = String.sub cl.buf 0 i in
    cl.buf <- String.sub cl.buf (i + 1) (String.length cl.buf - i - 1);
    Some line
  | None -> (
    match Transport.recv cl.fd with
    | `Retry -> read_line cl
    | `Eof -> None
    | `Data d ->
      cl.buf <- cl.buf ^ d;
      read_line cl)

let request cl req =
  Transport.send_all cl.fd (render req ^ "\n");
  let rec go acc =
    match read_line cl with
    | None -> Error "connection closed by daemon"
    | Some line -> if final_line line then Ok (List.rev acc, line) else go (line :: acc)
  in
  go []
