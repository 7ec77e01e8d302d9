(* Interned, int-packed signals.

   A signal in flight is a handful of immutable facts — constructor,
   medium, and a descriptor or selector payload drawn from a tiny
   per-session population — yet the heap representation costs several
   blocks per copy.  This module interns the payloads the way the model
   checker's codec ([Path_model.pack]) interns whole states, packing a
   signal into one immediate int:

     bits 0-2   constructor tag
     bits 3-4   medium (Open only)
     bits 5+    descriptor intern id     (Open)
     bits 3+    descriptor / selector id (Oack, Describe, Select)

   The intern tables are domain-local ([Domain.DLS]): each fleet shard
   interns independently, so there is no cross-domain mutable state and
   no locking.  The ids are therefore {e per-domain} artifacts — two
   domains number the same descriptor differently — and must never leak
   into digests, traces on disk, or cross-domain comparisons: always
   {!unpack} back to structural values first.  [unpack] returns the
   {e interned} signal block for its word, so repeated unpacking of the
   same word allocates nothing and physical equality coincides with
   structural equality within a domain.

   Neither direction hashes on its hit path.  [pack] first asks an
   {!Ident_cache} that matches payloads by physical identity; only a
   block the cache has not seen goes to the structural [Hashtbl].
   [unpack] reads the interned signal from
   a per-tag array indexed by the word's payload bits (the intern id,
   times four plus the medium for [Open]), so those arrays grow with the
   number of interned payloads, not with word values. *)

let cache_size = 64

type tables = {
  desc_ids : (Descriptor.t, int) Hashtbl.t;
  mutable descs : Descriptor.t array;  (* id -> descriptor *)
  mutable ndescs : int;
  sel_ids : (Selector.t, int) Hashtbl.t;
  mutable sels : Selector.t array;
  mutable nsels : int;
  desc_cache : (Descriptor.t, int) Ident_cache.t;
  sel_cache : (Selector.t, int) Ident_cache.t;
  by_tag : Signal.t array array;
      (* tag -> payload bits -> interned signal; [Close] marks a slot
         not yet filled (no payload-carrying signal is [Close]) *)
}

(* Blocks no caller can hold, for the caches' unfilled slots. *)
let no_addr = { Address.host = ""; port = 0 }
let no_desc = { Descriptor.owner = ""; version = -1; addr = no_addr; offer = Descriptor.No_media }
let no_sel = { Selector.responds_to = ("", -1); sender = no_addr; choice = Selector.No_media }

let tables_key =
  Domain.DLS.new_key (fun () ->
      {
        desc_ids = Hashtbl.create 32;
        descs = [||];
        ndescs = 0;
        sel_ids = Hashtbl.create 32;
        sels = [||];
        nsels = 0;
        desc_cache = Ident_cache.create cache_size ~absent:no_desc 0;
        sel_cache = Ident_cache.create cache_size ~absent:no_sel 0;
        by_tag = Array.make 8 [||];
      })

let tables () = Domain.DLS.get tables_key

(* [arr] with [x] at [n], doubling it (at least to cover [n]) when it
   is too short; new slots hold [fill]. *)
let grow_store arr n x ~fill =
  let cap = Array.length arr in
  if n < cap then begin
    arr.(n) <- x;
    arr
  end
  else begin
    let arr' =
      (Array.make (Int.max (n + 1) (if cap = 0 then 16 else 2 * cap)) fill
      [@lint.allow
        "alloc: id->value store doubling on a first-seen payload; the per-session payload \
         population is tiny, so E15 charges interning to session setup, not steady state"])
    in
    Array.blit arr 0 arr' 0 cap;
    arr'.(n) <- x;
    arr'
  end

(* Cache slots from a few immediate fields, spreading one session's
   endpoints and versions apart. *)
let last_char s =
  let n = String.length s in
  if n = 0 then 0 else Char.code (String.unsafe_get s (n - 1))

let desc_slot (d : Descriptor.t) =
  (d.version * 7) + (last_char d.owner * 31) + d.addr.Address.port

let sel_slot (s : Selector.t) =
  let owner, version = s.Selector.responds_to in
  let chosen = match s.Selector.choice with Selector.No_media -> 0 | Selector.Chosen _ -> 13 in
  (version * 7) + (last_char owner * 31) + s.Selector.sender.Address.port + chosen

(* The structural fallbacks use [Hashtbl.find] + [Not_found], not
   [find_opt]: [find_opt] allocates a [Some] per lookup — exactly the
   option box [Trace.str_id] avoids. *)
let intern_desc t d =
  match Hashtbl.find t.desc_ids d with
  | id -> id
  | exception Not_found ->
    let id = t.ndescs in
    Hashtbl.add t.desc_ids d id;
    t.descs <- grow_store t.descs id d ~fill:d;
    t.ndescs <- id + 1;
    id

let desc_id d =
  let t = tables () in
  Ident_cache.find t.desc_cache ~slot:(desc_slot d) d t intern_desc

let desc_of_id id =
  let t = tables () in
  if id < 0 || id >= t.ndescs then invalid_arg "Signal_pack.desc_of_id: unknown id";
  t.descs.(id)

let intern_sel t s =
  match Hashtbl.find t.sel_ids s with
  | id -> id
  | exception Not_found ->
    let id = t.nsels in
    Hashtbl.add t.sel_ids s id;
    t.sels <- grow_store t.sels id s ~fill:s;
    t.nsels <- id + 1;
    id

let sel_id s =
  let t = tables () in
  Ident_cache.find t.sel_cache ~slot:(sel_slot s) s t intern_sel

let sel_of_id id =
  let t = tables () in
  if id < 0 || id >= t.nsels then invalid_arg "Signal_pack.sel_of_id: unknown id";
  t.sels.(id)

(* Constructor tags.  Kept stable so packed words are comparable within
   a domain's lifetime. *)
let tag_close = 0
let tag_closeack = 1
let tag_open = 2
let tag_oack = 3
let tag_describe = 4
let tag_select = 5

let medium_code = function
  | Medium.Audio -> 0
  | Medium.Video -> 1
  | Medium.Text -> 2
  | Medium.Audio_video -> 3

let medium_of_code = function
  | 0 -> Medium.Audio
  | 1 -> Medium.Video
  | 2 -> Medium.Text
  | _ -> Medium.Audio_video

let pack = function
  | Signal.Close -> tag_close
  | Signal.Closeack -> tag_closeack
  | Signal.Open (m, d) -> tag_open lor (medium_code m lsl 3) lor (desc_id d lsl 5)
  | Signal.Oack d -> tag_oack lor (desc_id d lsl 3)
  | Signal.Describe d -> tag_describe lor (desc_id d lsl 3)
  | Signal.Select s -> tag_select lor (sel_id s lsl 3)
[@@lint.hotpath]

let tag word = word land 7

let rebuild word =
  match word land 7 with
  | 0 -> Signal.Close
  | 1 -> Signal.Closeack
  | 2 -> Signal.Open (medium_of_code ((word lsr 3) land 3), desc_of_id (word lsr 5))
  | 3 -> Signal.Oack (desc_of_id (word lsr 3))
  | 4 -> Signal.Describe (desc_of_id (word lsr 3))
  | 5 -> Signal.Select (sel_of_id (word lsr 3))
  | _ -> invalid_arg "Signal_pack.unpack: bad tag"
[@@lint.allow
  "alloc: rebuild runs once per distinct word and the block is interned in [by_tag]; \
   repeated unpacking of the same word is the allocation-free hit path E15's steady state \
   measures"]

(* First unpack of a word on this domain: rebuild it (raising on a bad
   tag or an id this domain never interned) and file it under its
   payload bits. *)
let unpack_fresh t word =
  let s = rebuild word in
  let tag = word land 7 in
  t.by_tag.(tag) <- grow_store t.by_tag.(tag) (word lsr 3) s ~fill:Signal.Close;
  s

let unpack word =
  match word land 7 with
  | 0 -> Signal.Close
  | 1 -> Signal.Closeack
  | tag ->
    let t = tables () in
    let arr = t.by_tag.(tag) and i = word lsr 3 in
    if i < Array.length arr && arr.(i) != Signal.Close then arr.(i) else unpack_fresh t word
[@@lint.hotpath]

let name word =
  match word land 7 with
  | 0 -> "close"
  | 1 -> "closeack"
  | 2 -> "open"
  | 3 -> "oack"
  | 4 -> "describe"
  | 5 -> "select"
  | _ -> invalid_arg "Signal_pack.name: bad tag"
