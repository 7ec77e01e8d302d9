open Mediactl_types

type sig_event = {
  chan : string;
  tun : int;
  box : string;
  peer : string;
  initiator : bool;
  signal : Signal.t;
}

type net_decision =
  | Dropped
  | Passed of int
  | Retransmit of int
  | Retry_exhausted
  | Dup_suppressed
  | Reorder_suppressed
  | Ack_sent
  | Ack_dropped

type kind =
  | Sig_send of sig_event
  | Sig_recv of sig_event
  | Meta_send of { chan : string; box : string }
  | Meta_recv of { chan : string; box : string }
  | Slot_transition of { slot : string; from_ : string; to_ : string; cause : string }
  | Goal of { goal : string; slot : string; from_ : string; to_ : string }
  | Net of { chan : string; decision : net_decision }

type event = { seq : int; at : float; kind : kind }

(* ------------------------------------------------------------------ *)
(* The flat ring buffer

   The hot path of a recording session writes fixed-width entries into
   a per-domain flat int array — [stride] words per event: a tag and up
   to six int fields — with timestamps in a parallel float array (so
   they stay unboxed).  Strings are interned into a domain-lifetime
   append-only table and stored as ids; signals are stored as
   {!Mediactl_types.Signal_pack} words.  An emission therefore
   allocates nothing in steady state: every field is an immediate, and
   both arrays and the intern tables persist (and keep their capacity)
   across sessions on the same domain.

   The buffer is emptied by {!drain} — at the end of every recording
   bracket, and whenever a long-lived recorder asks — which snapshots
   the entries into a self-contained {!Packed.t}.  String ids and packed
   signal words are per-domain artifacts that must never cross a domain
   boundary, so the snapshot — always taken on the owning domain —
   renumbers both, in order of first use, into indices of the
   snapshot's own arrays of strings and decoded (interned) [Signal.t]
   values; the ids and words themselves are kept beside them only for
   the owning domain's JSONL memo.  A packed trace can then be shipped
   to and decoded on any domain.  Its fields are small numbers — a tag,
   a flag, a tunnel, a net code, an index — so it stores each in as few
   bytes as the trace's widest field needs (see [Packed.t]). *)

let stride = 7

(* Entry tags (word 0 of each entry). *)
let tag_sig_send = 0
let tag_sig_recv = 1
let tag_meta_send = 2
let tag_meta_recv = 3
let tag_slot = 4
let tag_goal = 5
let tag_net = 6

(* Net-decision codes (field 2 of a [tag_net] entry; field 3 carries
   the copy count or attempt number). *)
let code_of_decision = function
  | Dropped -> 0
  | Passed _ -> 1
  | Retransmit _ -> 2
  | Retry_exhausted -> 3
  | Dup_suppressed -> 4
  | Reorder_suppressed -> 5
  | Ack_sent -> 6
  | Ack_dropped -> 7

(* The copy count or attempt number, 0 for the other decisions. *)
let decision_extra = function
  | Passed n -> n
  | Retransmit a -> a
  | Dropped | Retry_exhausted | Dup_suppressed | Reorder_suppressed | Ack_sent | Ack_dropped -> 0

let decision_name_of_code code extra =
  match code with
  | 0 -> "dropped"
  | 1 -> if extra = 1 then "passed" else "duplicated"
  | 2 -> "retransmit"
  | 3 -> "retry-exhausted"
  | 4 -> "dup-suppressed"
  | 5 -> "reorder-suppressed"
  | 6 -> "ack"
  | _ -> "ack-dropped"

let decision_of_code code extra =
  match code with
  | 0 -> Dropped
  | 1 -> Passed extra
  | 2 -> Retransmit extra
  | 3 -> Retry_exhausted
  | 4 -> Dup_suppressed
  | 5 -> Reorder_suppressed
  | 6 -> Ack_sent
  | _ -> Ack_dropped

(* The string table sits behind an {!Ident_cache} (DESIGN section 13):
   the emitters pass the same few physical labels over and over
   (channel labels, box and slot names, state names), so a lookup is
   usually a pointer compare rather than a [caml_hash]. *)
let str_cache_size = 256

(* Every ring gets an id no other ring in the process ever has.  A
   snapshot carries its ring's id as its {e home}: the one domain on
   which its string ids and signal words mean what the domain's tables
   say (see [Packed.add_jsonl] and [Packed.append]).  Ids start at 1;
   0 is no home. *)
let no_home = 0
let next_ring_id = Atomic.make 1

type ring = {
  r_id : int;
  mutable ints : int array;  (* [stride] words per event *)
  mutable ats : float array;  (* one unboxed timestamp per event *)
  mutable rlen : int;  (* events recorded since the last drain *)
  str_ids : (string, int) Hashtbl.t;  (* append-only, domain lifetime *)
  mutable strs : string array;  (* id -> string; replaced, never rewritten, on growth *)
  mutable nstrs : int;
  str_cache : (string, int) Ident_cache.t;
  mutable memo_keys : int array;  (* the JSONL memo: [stride] words per slot, empty until used *)
  mutable memo_tails : string array;  (* per slot: the line after its timestamp *)
  mutable memo_key : int array;  (* the key of the entry being rendered *)
  (* A drain's numbering of the strings and signals it takes; every
     drain of the ring reuses the tables. *)
  mutable str_local : int array;  (* intern id -> index in the snapshot, -1 between drains *)
  mutable sig_keys : int array;
  mutable sig_vals : int array;
      (* by linear probing: a signal word and its index in the snapshot
         plus one; 0 marks a free slot, and every slot is free between
         drains *)
  mutable drain_sids : int array;  (* index -> intern id, for the drain under way *)
  mutable drain_words : int array;  (* index -> signal word, likewise *)
}

let fresh_ring () =
  {
    r_id = Atomic.fetch_and_add next_ring_id 1;
    ints = [||];
    ats = [||];
    rlen = 0;
    str_ids = Hashtbl.create 64;
    strs = [||];
    nstrs = 0;
    (* a fresh block no caller can hold *)
    str_cache = Ident_cache.create str_cache_size ~absent:(String.make 1 '\000') 0;
    memo_keys = [||];
    memo_tails = [||];
    memo_key = [||];
    str_local = [||];
    sig_keys = [||];
    sig_vals = [||];
    drain_sids = [||];
    drain_words = [||];
  }

(* [Hashtbl.find] rather than [find_opt]: the miss path must not
   allocate the option either. *)
let intern_str r s =
  match Hashtbl.find r.str_ids s with
  | i -> i
  | exception Not_found ->
    let i = r.nstrs in
    Hashtbl.add r.str_ids s i;
    (* Growth copies into a fresh array; ids never move, so a capture
       taken earlier still means what it did (see [capture]). *)
    (let cap = Array.length r.strs in
     if i >= cap then begin
       let strs =
         (Array.make (if cap = 0 then 32 else 2 * cap) s
         [@lint.allow
           "alloc: intern-table doubling on a first-seen string; steady state hits the table \
            and E15 charges interning to session setup"])
       in
       Array.blit r.strs 0 strs 0 i;
       r.strs <- strs
     end);
    r.strs.(i) <- s;
    r.nstrs <- i + 1;
    i

let str_id r s = Ident_cache.find r.str_cache ~slot:(Ident_cache.string_slot s) s r intern_str

(* Double both arrays together, keeping the entries recorded so far. *)
let ring_double r =
  let cap = Array.length r.ints in
  let cap' = if cap = 0 then 1024 * stride else 2 * cap in
  let ints = Array.make cap' 0 in
  Array.blit r.ints 0 ints 0 (r.rlen * stride);
  r.ints <- ints;
  let ats = Array.make (cap' / stride) 0.0 in
  Array.blit r.ats 0 ats 0 r.rlen;
  r.ats <- ats
[@@lint.allow
  "alloc: ring doubling growth, amortized O(1) words/event and reused across sessions — \
   E15's steady-state 334.5 w/event already includes it"]

(* Reserve the next entry; returns the base index into [ints]. *)
let ring_slot r =
  let base = r.rlen * stride in
  if base + stride > Array.length r.ints then ring_double r;
  r.rlen <- r.rlen + 1;
  base

(* The recording flag, clock, and ring are domain-local: one mutable
   context per domain, reached through [Domain.DLS].  Instrumentation
   sites all over the stack guard themselves with one [enabled] check
   — a DLS lookup, a load, and a branch, no allocation — so a disabled
   trace still costs almost nothing.  Domain-locality is what lets a
   fleet run many sessions concurrently: each shard records its own
   sessions into its own context, with its own independent numbering,
   and can never observe (or interleave with) another shard's events.
   Within one domain, sessions record one at a time.  [base] is the
   sequence number of the ring's first entry: the count of entries
   drained earlier in the current bracket. *)
type ctx = {
  mutable on : bool;
  mutable base : int;
  mutable clock : unit -> float;
  ring : ring;
}

let ctx_key =
  Domain.DLS.new_key (fun () ->
      { on = false; base = 0; clock = (fun () -> 0.0); ring = fresh_ring () })

let ctx () = Domain.DLS.get ctx_key
let enabled () = (ctx ()).on
let set_clock f = (ctx ()).clock <- f
let reset_clock () = (ctx ()).clock <- (fun () -> 0.0)

(* Ring writers, one per entry shape.  Each writes all [stride] words,
   unused fields as 0, so that equal entries are equal word for word
   whatever the ring slot held before (the JSONL memo keys on them). *)

let ring_sig c tag ~chan ~tun ~box ~peer ~initiator signal =
  let r = c.ring in
  let base = ring_slot r in
  r.ats.(r.rlen - 1) <- c.clock ();
  let ints = r.ints in
  ints.(base) <- tag;
  ints.(base + 1) <- str_id r chan;
  ints.(base + 2) <- tun;
  ints.(base + 3) <- str_id r box;
  ints.(base + 4) <- str_id r peer;
  ints.(base + 5) <- (if initiator then 1 else 0);
  ints.(base + 6) <- Signal_pack.pack signal

let ring_meta c tag ~chan ~box =
  let r = c.ring in
  let base = ring_slot r in
  r.ats.(r.rlen - 1) <- c.clock ();
  let ints = r.ints in
  ints.(base) <- tag;
  ints.(base + 1) <- str_id r chan;
  ints.(base + 2) <- str_id r box;
  ints.(base + 3) <- 0;
  ints.(base + 4) <- 0;
  ints.(base + 5) <- 0;
  ints.(base + 6) <- 0

let ring_quad c tag a b d e =
  let r = c.ring in
  let base = ring_slot r in
  r.ats.(r.rlen - 1) <- c.clock ();
  let ints = r.ints in
  ints.(base) <- tag;
  ints.(base + 1) <- str_id r a;
  ints.(base + 2) <- str_id r b;
  ints.(base + 3) <- str_id r d;
  ints.(base + 4) <- str_id r e;
  ints.(base + 5) <- 0;
  ints.(base + 6) <- 0

let ring_net c ~chan decision =
  let r = c.ring in
  let base = ring_slot r in
  r.ats.(r.rlen - 1) <- c.clock ();
  let ints = r.ints in
  ints.(base) <- tag_net;
  ints.(base + 1) <- str_id r chan;
  ints.(base + 2) <- code_of_decision decision;
  ints.(base + 3) <- decision_extra decision;
  ints.(base + 4) <- 0;
  ints.(base + 5) <- 0;
  ints.(base + 6) <- 0

let emit kind =
  let c = ctx () in
  if c.on then
    match kind with
    | Sig_send { chan; tun; box; peer; initiator; signal } ->
      ring_sig c tag_sig_send ~chan ~tun ~box ~peer ~initiator signal
    | Sig_recv { chan; tun; box; peer; initiator; signal } ->
      ring_sig c tag_sig_recv ~chan ~tun ~box ~peer ~initiator signal
    | Meta_send { chan; box } -> ring_meta c tag_meta_send ~chan ~box
    | Meta_recv { chan; box } -> ring_meta c tag_meta_recv ~chan ~box
    | Slot_transition { slot; from_; to_; cause } -> ring_quad c tag_slot slot from_ to_ cause
    | Goal { goal; slot; from_; to_ } -> ring_quad c tag_goal goal slot from_ to_
    | Net { chan; decision } -> ring_net c ~chan decision

(* The allocation-free emitters: the arguments go straight into the
   flat buffer without ever building the [kind] value.  These seven
   are the [@@lint.hotpath] roots of ALLOC001 for the tracing layer:
   everything they reach must stay allocation-free (E15). *)

let sig_send ~chan ~tun ~box ~peer ~initiator signal =
  let c = ctx () in
  if c.on then ring_sig c tag_sig_send ~chan ~tun ~box ~peer ~initiator signal
[@@lint.hotpath]

let sig_recv ~chan ~tun ~box ~peer ~initiator signal =
  let c = ctx () in
  if c.on then ring_sig c tag_sig_recv ~chan ~tun ~box ~peer ~initiator signal
[@@lint.hotpath]

let meta_send ~chan ~box =
  let c = ctx () in
  if c.on then ring_meta c tag_meta_send ~chan ~box
[@@lint.hotpath]

let meta_recv ~chan ~box =
  let c = ctx () in
  if c.on then ring_meta c tag_meta_recv ~chan ~box
[@@lint.hotpath]

let slot_transition ~slot ~from_ ~to_ ~cause =
  let c = ctx () in
  if c.on then ring_quad c tag_slot slot from_ to_ cause
[@@lint.hotpath]

let goal ~goal ~slot ~from_ ~to_ =
  let c = ctx () in
  if c.on then ring_quad c tag_goal goal slot from_ to_
[@@lint.hotpath]

let net ~chan decision =
  let c = ctx () in
  if c.on then ring_net c ~chan decision
[@@lint.hotpath]

(* ------------------------------------------------------------------ *)
(* JSONL export

   One renderer, written straight into a [Buffer.t]: the field writers
   below escape strings and print integers in place, building no
   intermediate string.  [event_to_json] drives them from a structured
   event, [Packed.add_jsonl] from the flat arrays of a packed trace
   without decoding its entries — the same bytes either way.  On its
   home domain [Packed.add_jsonl] also remembers what they wrote for
   each entry (the memo below), and copies that for an equal entry. *)

let hex = "0123456789abcdef"

let needs_escape s =
  let rec go i =
    i < String.length s
    &&
    match String.unsafe_get s i with
    | '"' | '\\' -> true
    | c -> Char.code c < 0x20 || go (i + 1)
  in
  go 0

(* A JSON string literal, quotes included. *)
let add_jstr b s =
  Buffer.add_char b '"';
  if not (needs_escape s) then Buffer.add_string b s
  else
    for i = 0 to String.length s - 1 do
      match s.[i] with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b hex.[Char.code c lsr 4];
        Buffer.add_char b hex.[Char.code c land 15]
      | c -> Buffer.add_char b c
    done;
  Buffer.add_char b '"'

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* [%d] without the intermediate string. *)
let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

(* [%.3f]: simulated clocks mostly sit on whole milliseconds, which
   print exactly as the integer and ".000"; anything else goes through
   [Printf]. *)
let add_ms b at =
  if Float.is_integer at && at < 1e15 && not (Float.sign_bit at) then begin
    add_int b (int_of_float at);
    Buffer.add_string b ".000"
  end
  else Printf.bprintf b "%.3f" at

let add_bool b v = Buffer.add_string b (if v then "true" else "false")

(* ["key":value] after a comma, for the fields after the first. *)
let add_key b key =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":"

let add_id b owner version =
  Buffer.add_string b "{\"owner\":";
  add_jstr b owner;
  Buffer.add_string b ",\"version\":";
  add_int b version

(* The signal's fields: its name and the descriptor or selector it
   carries, if any. *)
let add_signal b signal =
  Buffer.add_string b "\"signal\":";
  add_jstr b (Signal.name signal);
  match Signal.descriptor signal, Signal.selector signal with
  | Some d, _ ->
    let owner, version = Descriptor.id d in
    add_key b "desc";
    add_id b owner version;
    add_key b "media";
    add_bool b (Descriptor.offers_media d);
    Buffer.add_char b '}'
  | None, Some s ->
    let owner, version = s.Selector.responds_to in
    add_key b "sel";
    Buffer.add_string b "{\"responds_to\":";
    add_id b owner version;
    Buffer.add_string b "},\"codec\":";
    (match Selector.codec s with
    | None -> Buffer.add_string b "null"
    | Some c -> add_jstr b (Codec.to_string c));
    Buffer.add_char b '}'
  | None, None -> ()

let kind_name tag =
  if tag = tag_sig_send then "sig_send"
  else if tag = tag_sig_recv then "sig_recv"
  else if tag = tag_meta_send then "meta_send"
  else if tag = tag_meta_recv then "meta_recv"
  else if tag = tag_slot then "slot"
  else if tag = tag_goal then "goal"
  else "net"

(* The object's opening: sequence number and timestamp, then the kind. *)
let add_stamp b ~seq ~at =
  Buffer.add_string b "{\"seq\":";
  add_int b seq;
  Buffer.add_string b ",\"t\":";
  add_ms b at

let add_kind b tag =
  Buffer.add_string b ",\"kind\":\"";
  Buffer.add_string b (kind_name tag);
  Buffer.add_char b '"'

let add_str_field b key s =
  add_key b key;
  add_jstr b s

(* Everything of a signal entry but the signal itself, which follows. *)
let add_sig_fields b ~chan ~tun ~box ~peer ~initiator =
  add_str_field b "chan" chan;
  add_key b "tun";
  add_int b tun;
  add_str_field b "box" box;
  add_str_field b "peer" peer;
  add_key b "initiator";
  add_bool b initiator;
  Buffer.add_char b ','

(* Slot and goal entries: four string fields under the kind's keys. *)
let add_quad_fields b tag f1 f2 f3 f4 =
  if tag = tag_slot then begin
    add_str_field b "slot" f1;
    add_str_field b "from" f2;
    add_str_field b "to" f3;
    add_str_field b "cause" f4
  end
  else begin
    add_str_field b "goal" f1;
    add_str_field b "slot" f2;
    add_str_field b "from" f3;
    add_str_field b "to" f4
  end

let add_net_fields b ~chan ~code ~extra =
  add_str_field b "chan" chan;
  add_key b "decision";
  Buffer.add_char b '"';
  Buffer.add_string b (decision_name_of_code code extra);
  Buffer.add_char b '"';
  if code = 1 then begin
    add_key b "copies";
    add_int b extra
  end
  else if code = 2 then begin
    add_key b "attempt";
    add_int b extra
  end

let add_meta_fields b ~chan ~box =
  add_str_field b "chan" chan;
  add_str_field b "box" box

let add_event b (e : event) =
  let head tag =
    add_stamp b ~seq:e.seq ~at:e.at;
    add_kind b tag
  in
  let sig_entry tag s =
    head tag;
    add_sig_fields b ~chan:s.chan ~tun:s.tun ~box:s.box ~peer:s.peer ~initiator:s.initiator;
    add_signal b s.signal
  in
  (match e.kind with
  | Sig_send s -> sig_entry tag_sig_send s
  | Sig_recv s -> sig_entry tag_sig_recv s
  | Meta_send { chan; box } ->
    head tag_meta_send;
    add_meta_fields b ~chan ~box
  | Meta_recv { chan; box } ->
    head tag_meta_recv;
    add_meta_fields b ~chan ~box
  | Slot_transition { slot; from_; to_; cause } ->
    head tag_slot;
    add_quad_fields b tag_slot slot from_ to_ cause
  | Goal { goal; slot; from_; to_ } ->
    head tag_goal;
    add_quad_fields b tag_goal goal slot from_ to_
  | Net { chan; decision } ->
    head tag_net;
    add_net_fields b ~chan ~code:(code_of_decision decision) ~extra:(decision_extra decision));
  Buffer.add_char b '}'

let event_to_json e =
  let b = Buffer.create 256 in
  add_event b e;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Packed traces                                                       *)

(* The fields of an entry, by shape (field 0 is the tag):
   - signal: 1 channel, 2 tunnel, 3 box, 4 peer, 5 initiator flag,
     6 signal;
   - meta: 1 channel, 2 box;
   - slot and goal: 1 to 4, four strings;
   - net: 1 channel, 2 decision code, 3 copy count or attempt.
   Every field a shape leaves unused is 0.  Field 1 is a string in
   every shape.  A packed trace renumbers the string and signal fields
   (see [number_fields]); of the others, only the tunnel and the count
   may need more than a byte. *)
let is_sig tg = tg = tag_sig_send || tg = tag_sig_recv
let is_quad tg = tg = tag_slot || tg = tag_goal

(* The fields of a packed trace all have one width: the narrowest of 1,
   2, 4 or 8 bytes whose signed range holds every field of the trace.
   They are stored little-endian.  One byte is the common width, so it
   is read and written inline. *)
let fits w ~lo ~hi =
  let m = 1 lsl ((8 * w) - 1) in
  lo >= -m && hi < m

let width_of ~lo ~hi =
  if fits 1 ~lo ~hi then 1 else if fits 2 ~lo ~hi then 2 else if fits 4 ~lo ~hi then 4 else 8

let get_wide s w j =
  match w with
  | 2 -> String.get_int16_le s (2 * j)
  | 4 -> Int32.to_int (String.get_int32_le s (4 * j))
  | _ -> Int64.to_int (String.get_int64_le s (8 * j))

(* Field [j] of a trace, counting fields from its start. *)
let[@inline] get_field s w j = if w = 1 then String.get_int8 s j else get_wide s w j

let set_wide b w j v =
  match w with
  | 2 -> Bytes.set_int16_le b (2 * j) v
  | 4 -> Bytes.set_int32_le b (4 * j) (Int32.of_int v)
  | _ -> Bytes.set_int64_le b (8 * j) (Int64.of_int v)

let[@inline] set_field b w j v = if w = 1 then Bytes.set_int8 b j v else set_wide b w j v

(* The first [n] ints of [ints] as fields of width [w]: one loop per
   width, so that no call in the loop body keeps its values off
   registers. *)
let encode ints n w =
  let b = Bytes.create (n * w) in
  (match w with
  | 1 ->
    (* [b] has exactly [n] bytes *)
    for j = 0 to n - 1 do
      Bytes.unsafe_set b j (Char.unsafe_chr (ints.(j) land 0xff))
    done
  | 2 ->
    for j = 0 to n - 1 do
      Bytes.set_int16_le b (2 * j) ints.(j)
    done
  | 4 ->
    for j = 0 to n - 1 do
      Bytes.set_int32_le b (4 * j) (Int32.of_int ints.(j))
    done
  | _ ->
    for j = 0 to n - 1 do
      Bytes.set_int64_le b (8 * j) (Int64.of_int ints.(j))
    done);
  b

module Packed = struct
  (* A trace holds its own tables: [p_strs] and [p_sigs] are the strings
     and signals its entries use, each once, and an entry's string and
     signal fields index them.  So its fields stay as small as the trace
     is, whatever its domain has interned, and a trace shares nothing
     mutable with the domain that recorded it.

     [p_home] is the id of the ring that recorded the trace; it is an
     int, never the ring itself, which is mutable and stays on its
     domain.  On the home's domain [p_sids] and [p_words] give each
     string's intern id and each signal's [Signal_pack] word, which is
     what the JSONL memo keys on.  A trace whose entries come from more
     than one ring has no home, and leaves both empty. *)
  type t = {
    p_base : int;  (* sequence number of the first entry *)
    p_width : int;  (* bytes per field: 1, 2, 4 or 8 *)
    p_fields : string;  (* [stride] fields per entry, [p_width] bytes each *)
    p_ats : float array;  (* one timestamp per entry: its length is the trace's *)
    p_strs : string array;  (* string index -> string *)
    p_sigs : Signal.t array;  (* signal index -> signal *)
    p_sids : int array;  (* string index -> its home intern id; empty without a home *)
    p_words : int array;  (* signal index -> its home [Signal_pack] word; empty without a home *)
    p_home : int;
  }

  let length t = Array.length t.p_ats
  let seq t i = t.p_base + i
  let at t i = t.p_ats.(i)
  let[@inline] field t i k = get_field t.p_fields t.p_width ((i * stride) + k)
  let tag t i = field t i 0
  let str t i k = t.p_strs.(field t i k)

  (* Accessors for the two signal entry shapes (tags 0 and 1) — the
     hot consumers (monitor replay, metrics) read fields directly so
     that scanning a packed trace allocates nothing per event. *)
  let sig_chan t i = str t i 1
  let sig_tun t i = field t i 2
  let sig_box t i = str t i 3
  let sig_peer t i = str t i 4
  let sig_initiator t i = field t i 5 = 1
  let sig_signal t i = t.p_sigs.(field t i 6)

  (* Signal, meta and net entries all keep their channel in field 1. *)
  let entry_chan t i =
    let tg = tag t i in
    if tg = tag_slot || tg = tag_goal then invalid_arg "Trace.Packed.entry_chan: no channel";
    str t i 1

  let net_decision t i = decision_of_code (field t i 2) (field t i 3)

  let kind t i =
    let tg = tag t i in
    if tg = tag_sig_send || tg = tag_sig_recv then begin
      let s =
        {
          chan = sig_chan t i;
          tun = sig_tun t i;
          box = sig_box t i;
          peer = sig_peer t i;
          initiator = sig_initiator t i;
          signal = sig_signal t i;
        }
      in
      if tg = tag_sig_send then Sig_send s else Sig_recv s
    end
    else if tg = tag_meta_send then Meta_send { chan = str t i 1; box = str t i 2 }
    else if tg = tag_meta_recv then Meta_recv { chan = str t i 1; box = str t i 2 }
    else if tg = tag_slot then
      Slot_transition { slot = str t i 1; from_ = str t i 2; to_ = str t i 3; cause = str t i 4 }
    else if tg = tag_goal then
      Goal { goal = str t i 1; slot = str t i 2; from_ = str t i 3; to_ = str t i 4 }
    else Net { chan = str t i 1; decision = decision_of_code (field t i 2) (field t i 3) }

  let event t i = { seq = seq t i; at = at t i; kind = kind t i }

  let to_events t = List.init (length t) (event t)

  let iter f t =
    for i = 0 to length t - 1 do
      f (event t i)
    done

  (* Signal [k] of the trace: rendered the first time an entry carries
     it, and copied from [frags] for every later one. *)
  let add_frag b t frags k =
    if String.length frags.(k) > 0 then Buffer.add_string b frags.(k)
    else begin
      let start = Buffer.length b in
      add_signal b t.p_sigs.(k);
      frags.(k) <- Buffer.sub b start (Buffer.length b - start)
    end

  (* Entry [i]'s line after its timestamp, through the newline. *)
  let add_tail b t frags i =
    let tg = tag t i in
    add_kind b tg;
    if tg = tag_sig_send || tg = tag_sig_recv then begin
      add_sig_fields b ~chan:(str t i 1) ~tun:(field t i 2) ~box:(str t i 3) ~peer:(str t i 4)
        ~initiator:(field t i 5 = 1);
      add_frag b t frags (field t i 6)
    end
    else if tg = tag_meta_send || tg = tag_meta_recv then
      add_meta_fields b ~chan:(str t i 1) ~box:(str t i 2)
    else if tg = tag_slot || tg = tag_goal then
      add_quad_fields b tg (str t i 1) (str t i 2) (str t i 3) (str t i 4)
    else add_net_fields b ~chan:(str t i 1) ~code:(field t i 2) ~extra:(field t i 3);
    Buffer.add_string b "}\n"

  (* The JSONL memo.  On a trace's home domain, [add_jsonl] keeps each
     entry's tail — what [add_tail] writes — in a direct-mapped table in
     the domain's ring.  The key is the entry's [stride] decoded fields,
     with each string index replaced by the string's intern id and a
     signal index by the signal's [Signal_pack] word, so that it does
     not depend on the trace's numbering or width.  On its domain a key
     always renders the same bytes: the string table is append-only and
     the signal tables are never cleared.  An entry whose whole key sits
     in its slot is copied from there; any other is rendered and takes
     the slot over.  The sessions of one scenario on one domain repeat
     their entries' shapes, and then nearly every entry is a copy. *)
  let memo_slots = 2048

  let memo_mix h x = (h lxor x) * 0x2545F4914F6CDD1D

  let rec same_key keys kb key k =
    k = stride || (keys.(kb + k) = key.(k) && same_key keys kb key (k + 1))

  let memo_init r =
    if Array.length r.memo_keys = 0 then begin
      r.memo_keys <- Array.make (memo_slots * stride) (-1);
      r.memo_tails <- Array.make memo_slots "";
      r.memo_key <- Array.make stride 0
    end

  let sid t i k = t.p_sids.(field t i k)

  (* Key word [k] is [v]; returns the hash so far mixed with it. *)
  let[@inline] put key k v h =
    key.(k) <- v;
    memo_mix h v

  let add_tail_memo b r t frags i =
    let key = r.memo_key and tg = tag t i in
    let h = put key 1 (sid t i 1) (put key 0 tg 0) in
    let h =
      if is_sig tg then begin
        let h = put key 3 (sid t i 3) (put key 2 (field t i 2) h) in
        let h = put key 5 (field t i 5) (put key 4 (sid t i 4) h) in
        put key 6 t.p_words.(field t i 6) h
      end
      else begin
        let net = tg = tag_net and quad = is_quad tg in
        let h = put key 2 (if net then field t i 2 else sid t i 2) h in
        let h = put key 3 (if net then field t i 3 else if quad then sid t i 3 else 0) h in
        let h = put key 4 (if quad then sid t i 4 else 0) h in
        put key 6 0 (put key 5 0 h)
      end
    in
    let slot = (h lxor (h lsr 32)) land (memo_slots - 1) in
    let keys = r.memo_keys and kb = slot * stride in
    if same_key keys kb key 0 then Buffer.add_string b r.memo_tails.(slot)
    else begin
      let start = Buffer.length b in
      add_tail b t frags i;
      Array.blit key 0 keys kb stride;
      r.memo_tails.(slot) <- Buffer.sub b start (Buffer.length b - start)
    end

  let add_jsonl b t =
    let frags = Array.make (Array.length t.p_sigs) "" in
    let r = (ctx ()).ring in
    let home = t.p_home = r.r_id in
    if home then memo_init r;
    for i = 0 to length t - 1 do
      add_stamp b ~seq:(seq t i) ~at:(at t i);
      if home then add_tail_memo b r t frags i else add_tail b t frags i
    done

  let empty =
    {
      p_base = 0;
      p_width = 1;
      p_fields = "";
      p_ats = [||];
      p_strs = [||];
      p_sigs = [||];
      p_sids = [||];
      p_words = [||];
      p_home = no_home;
    }
  [@@lint.allow "race: the arrays are zero-length — nothing to mutate, safe to share"]

  (* The fields of [src], [sw] bytes each, into [dst] at width [w] from
     field [off] on. *)
  let copy_fields src sw dst w ~off =
    if sw = w then Bytes.blit_string src 0 dst (off * w) (String.length src)
    else
      for j = 0 to (String.length src / sw) - 1 do
        set_field dst w (off + j) (get_field src sw j)
      done

  let bump b w j d = set_field b w j (get_field (Bytes.unsafe_to_string b) w j + d)

  (* Join two traces into one, numbered on from [a]'s first entry;
     timestamps are kept verbatim (the segments come from consecutive
     recording brackets over one session clock).  The tables are
     concatenated and [b]'s indices move past [a]'s.  Each trace's width
     is the narrowest for its own fields, and [b]'s other fields do not
     move, so the join's width is the wider of the two unless the moved
     indices need more.  Two segments with one home keep it, with their
     intern ids and words; any other pair has no home. *)
  let append a b =
    if length a = 0 then b
    else if length b = 0 then a
    else begin
      let la = length a and lb = length b in
      let nstrs = Array.length a.p_strs and nsigs = Array.length a.p_sigs in
      let top = Int.max (nstrs + Array.length b.p_strs) (nsigs + Array.length b.p_sigs) - 1 in
      let w = Int.max (Int.max a.p_width b.p_width) (width_of ~lo:0 ~hi:top) in
      let fields = Bytes.create ((la + lb) * stride * w) in
      copy_fields a.p_fields a.p_width fields w ~off:0;
      copy_fields b.p_fields b.p_width fields w ~off:(la * stride);
      for i = 0 to lb - 1 do
        let tg = tag b i and j = (la + i) * stride in
        bump fields w (j + 1) nstrs;
        if is_sig tg then begin
          bump fields w (j + 3) nstrs;
          bump fields w (j + 4) nstrs;
          bump fields w (j + 6) nsigs
        end
        else if tg <> tag_net then begin
          bump fields w (j + 2) nstrs;
          if is_quad tg then begin
            bump fields w (j + 3) nstrs;
            bump fields w (j + 4) nstrs
          end
        end
      done;
      let home = a.p_home <> no_home && a.p_home = b.p_home in
      {
        p_base = a.p_base;
        p_width = w;
        p_fields = Bytes.unsafe_to_string fields;
        p_ats = Array.append a.p_ats b.p_ats;
        p_strs = Array.append a.p_strs b.p_strs;
        p_sigs = Array.append a.p_sigs b.p_sigs;
        p_sids = (if home then Array.append a.p_sids b.p_sids else [||]);
        p_words = (if home then Array.append a.p_words b.p_words else [||]);
        p_home = (if home then a.p_home else no_home);
      }
    end
end

let rec probe r w mask h =
  if r.sig_vals.(h) = 0 || r.sig_keys.(h) = w then h else probe r w mask ((h + 1) land mask)

(* The slot of signal word [w] in the drain's numbering table: where it
   is, or the free slot where it goes. *)
let sig_slot r w =
  let mask = Array.length r.sig_keys - 1 and h = w * 0x2545F4914F6CDD1D in
  probe r w mask ((h lxor (h lsr 32)) land mask)

(* Double the signal table, at least to 64 slots, and put back the
   drain's first [nsigs] words in the order they were taken. *)
let sig_grow r nsigs =
  let cap = Int.max 64 (2 * Array.length r.sig_keys) in
  r.sig_keys <- Array.make cap 0;
  r.sig_vals <- Array.make cap 0;
  for g = 0 to nsigs - 1 do
    let h = sig_slot r r.drain_words.(g) in
    r.sig_keys.(h) <- r.drain_words.(g);
    r.sig_vals.(h) <- g + 1
  done

(* [arr], doubled when it has no room at [n]. *)
let room arr n =
  if n < Array.length arr then arr
  else begin
    let grown = Array.make (Int.max 64 (2 * n)) 0 in
    Array.blit arr 0 grown 0 n;
    grown
  end

(* The drain's index of string id [v] and of signal word [v]: the one it
   was given, or the next, [!n], if the drain has not met it.
   [str_local] is [r.str_local]. *)
let new_str r n v =
  if !n >= Array.length r.drain_sids then r.drain_sids <- room r.drain_sids !n;
  r.drain_sids.(!n) <- v;
  r.str_local.(v) <- !n;
  incr n;
  !n - 1

let[@inline] str_index str_local r n v =
  let s = str_local.(v) in
  if s >= 0 then s else new_str r n v

let sig_index r n v =
  let h = sig_slot r v in
  if r.sig_vals.(h) > 0 then r.sig_vals.(h) - 1
  else begin
    let h =
      if 2 * (!n + 1) <= Array.length r.sig_keys then h
      else begin
        sig_grow r !n;
        sig_slot r v
      end
    in
    r.sig_keys.(h) <- v;
    if !n >= Array.length r.drain_words then r.drain_words <- room r.drain_words !n;
    r.drain_words.(!n) <- v;
    incr n;
    r.sig_vals.(h) <- !n;
    !n - 1
  end

(* Replace the string and signal fields of the ring's entries by their
   index in the snapshot, numbered in order of first use, and return the
   number of strings and signals.  [lo] and [hi] take the range of the
   plain fields that may need more than a byte: a signal entry's tunnel
   and a net entry's count.  The others — tags, flags, net codes and
   unused zeros — always fit one. *)
let number_fields r ~lo ~hi =
  let ints = r.ints and nstrs = ref 0 and nsigs = ref 0 in
  if Array.length r.str_local < r.nstrs then r.str_local <- Array.make (Array.length r.strs) (-1);
  if Array.length r.sig_keys = 0 then sig_grow r 0;
  let str_local = r.str_local in
  for i = 0 to r.rlen - 1 do
    let j = i * stride in
    let tg = ints.(j) in
    ints.(j + 1) <- str_index str_local r nstrs ints.(j + 1);
    if is_sig tg then begin
      ints.(j + 3) <- str_index str_local r nstrs ints.(j + 3);
      ints.(j + 4) <- str_index str_local r nstrs ints.(j + 4);
      ints.(j + 6) <- sig_index r nsigs ints.(j + 6);
      lo := Int.min !lo ints.(j + 2);
      hi := Int.max !hi ints.(j + 2)
    end
    else if tg = tag_net then begin
      lo := Int.min !lo ints.(j + 3);
      hi := Int.max !hi ints.(j + 3)
    end
    else begin
      ints.(j + 2) <- str_index str_local r nstrs ints.(j + 2);
      if is_quad tg then begin
        ints.(j + 3) <- str_index str_local r nstrs ints.(j + 3);
        ints.(j + 4) <- str_index str_local r nstrs ints.(j + 4)
      end
    end
  done;
  (!nstrs, !nsigs)

(* Snapshot the ring's entries.  Must run on the domain that recorded
   (string ids and signal words are domain-local), and only as the ring
   is emptied: it numbers the entries' strings and signals in place.
   Linear in the entries it takes: one pass numbers them and finds the
   width, one writes the fields at it, and the numbering tables are
   freed for the next drain. *)
let snapshot ~base r =
  let len = r.rlen and lo = ref 0 and hi = ref 0 in
  let nstrs, nsigs = number_fields r ~lo ~hi in
  let w = width_of ~lo:!lo ~hi:(Int.max !hi (Int.max nstrs nsigs - 1)) in
  let fields = encode r.ints (len * stride) w in
  let sids = Array.sub r.drain_sids 0 nstrs and words = Array.sub r.drain_words 0 nsigs in
  let strs = Array.make nstrs "" in
  for k = 0 to nstrs - 1 do
    strs.(k) <- r.strs.(sids.(k));
    r.str_local.(sids.(k)) <- -1
  done;
  (* Free the signals' slots in the reverse of the order they were
     taken: every slot a word's probe passed when it was taken is still
     taken when the word is looked up to be freed. *)
  for g = nsigs - 1 downto 0 do
    r.sig_vals.(sig_slot r words.(g)) <- 0
  done;
  {
    Packed.p_base = base;
    p_width = w;
    p_fields = Bytes.unsafe_to_string fields;
    p_ats = Array.sub r.ats 0 len;
    p_strs = strs;
    p_sigs = Array.map Signal_pack.unpack words;
    p_sids = sids;
    p_words = words;
    p_home = r.r_id;
  }

let drain () =
  let c = ctx () in
  if not c.on then invalid_arg "Trace.drain: no recording is active";
  let p = snapshot ~base:c.base c.ring in
  c.base <- c.base + c.ring.rlen;
  c.ring.rlen <- 0;
  p

let recording_packed f =
  let c = ctx () in
  if c.on then invalid_arg "Trace.recording_packed: a recording is already active";
  c.ring.rlen <- 0;
  c.base <- 0;
  c.on <- true;
  Fun.protect
    ~finally:(fun () ->
      c.on <- false;
      reset_clock ())
    (fun () ->
      let x = f () in
      (x, drain ()))

(* Captures and replay

   A capture copies ring entries verbatim: interned string ids and
   [Signal_pack] words included, and without timestamps.  Both kinds of
   word stay valid for the ring's domain as long as it lives (the
   string table is append-only, the signal tables are never cleared),
   so replay is one blit into the same ring — which is also why a
   capture remembers its ring's id and refuses any other ring. *)
type capture = { c_home : int; c_len : int; c_ints : int array }

let capture f =
  let c = ctx () in
  if not c.on then (f (), { c_home = c.ring.r_id; c_len = 0; c_ints = [||] })
  else begin
    let from = c.base + c.ring.rlen in
    let x = f () in
    let r = c.ring in
    if from < c.base then invalid_arg "Trace.capture: the ring was drained during the capture";
    let first = from - c.base in
    let len = r.rlen - first in
    (x, { c_home = r.r_id; c_len = len; c_ints = Array.sub r.ints (first * stride) (len * stride) })
  end

let replay cap =
  let c = ctx () in
  if c.on && cap.c_len > 0 then begin
    if cap.c_home <> c.ring.r_id then
      invalid_arg "Trace.replay: the capture was recorded on another domain";
    let r = c.ring in
    let first = r.rlen in
    while (first + cap.c_len) * stride > Array.length r.ints do
      ring_double r
    done;
    Array.blit cap.c_ints 0 r.ints (first * stride) (cap.c_len * stride);
    Array.fill r.ats first cap.c_len (c.clock ());
    r.rlen <- first + cap.c_len
  end

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let decision_name d = decision_name_of_code (code_of_decision d) (decision_extra d)

let pp_kind ppf = function
  | Sig_send { chan; tun; box; peer; signal; _ } ->
    Format.fprintf ppf "send %s.%d %s->%s %a" chan tun box peer Signal.pp signal
  | Sig_recv { chan; tun; box; peer; signal; _ } ->
    Format.fprintf ppf "recv %s.%d %s<-%s %a" chan tun box peer Signal.pp signal
  | Meta_send { chan; box } -> Format.fprintf ppf "meta-send %s from %s" chan box
  | Meta_recv { chan; box } -> Format.fprintf ppf "meta-recv %s at %s" chan box
  | Slot_transition { slot; from_; to_; cause } ->
    Format.fprintf ppf "slot %s %s->%s (%s)" slot from_ to_ cause
  | Goal { goal; slot; from_; to_ } ->
    Format.fprintf ppf "goal %s at %s %s->%s" goal slot from_ to_
  | Net { chan; decision } -> Format.fprintf ppf "net %s %s" chan (decision_name decision)

(* One row per receive, in the column layout of the paper's charts. *)
let pp_msc ppf p =
  for i = 0 to Packed.length p - 1 do
    if Packed.tag p i = tag_sig_recv then
      Format.fprintf ppf "%8.1f ms  %-6s -> %-6s  %s.%d  %a@." (Packed.at p i)
        (Packed.sig_peer p i) (Packed.sig_box p i) (Packed.sig_chan p i) (Packed.sig_tun p i)
        Signal.pp (Packed.sig_signal p i)
  done
