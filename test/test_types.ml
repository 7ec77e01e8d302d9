(* Tests for the protocol data vocabulary: codecs, media, addresses,
   descriptors, selectors, signals. *)

open Mediactl_types

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstring = Alcotest.string

(* --- codecs -------------------------------------------------------- *)

let test_codec_roundtrip () =
  List.iter
    (fun c ->
      match Codec.of_string (Codec.to_string c) with
      | Some c' -> check tbool (Codec.to_string c) true (Codec.equal c c')
      | None -> Alcotest.failf "of_string failed for %s" (Codec.to_string c))
    Codec.all

let test_codec_case_insensitive () =
  match Codec.of_string "g.711" with
  | Some Codec.G711 -> ()
  | Some _ | None -> Alcotest.fail "g.711 should parse to G711"

let test_codec_unknown () =
  check tbool "unknown codec" true (Codec.of_string "X.999" = None)

let test_codec_bandwidth_positive () =
  List.iter (fun c -> check tbool (Codec.to_string c) true (Codec.bandwidth_kbps c > 0)) Codec.all

let test_codec_g711_vs_g726 () =
  (* The paper's running example: G.711 is higher fidelity and higher
     bandwidth than G.726. *)
  check tbool "fidelity" true (Codec.fidelity Codec.G711 > Codec.fidelity Codec.G726);
  check tbool "bandwidth" true
    (Codec.bandwidth_kbps Codec.G711 > Codec.bandwidth_kbps Codec.G726)

let test_codec_kinds_cover () =
  let audio = List.filter (fun c -> Codec.kind c = Codec.Audio_codec) Codec.all in
  let video = List.filter (fun c -> Codec.kind c = Codec.Video_codec) Codec.all in
  let text = List.filter (fun c -> Codec.kind c = Codec.Text_codec) Codec.all in
  check tbool "has audio" true (List.length audio >= 3);
  check tbool "has video" true (List.length video >= 3);
  check tbool "has text" true (List.length text >= 1);
  check tint "partition" (List.length Codec.all)
    (List.length audio + List.length video + List.length text)

(* --- media --------------------------------------------------------- *)

let test_medium_codecs_sorted () =
  List.iter
    (fun m ->
      let cs = Medium.codecs m in
      check tbool (Medium.to_string m) true (cs <> []);
      let rec sorted = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) -> Codec.fidelity a >= Codec.fidelity b && sorted rest
      in
      check tbool "sorted by fidelity" true (sorted cs))
    Medium.all

let test_medium_supports () =
  check tbool "audio/G711" true (Medium.supports Medium.Audio Codec.G711);
  check tbool "audio/H261" false (Medium.supports Medium.Audio Codec.H261);
  check tbool "video/H264" true (Medium.supports Medium.Video Codec.H264);
  check tbool "av/H264" true (Medium.supports Medium.Audio_video Codec.H264);
  check tbool "av/G711" false (Medium.supports Medium.Audio_video Codec.G711)

let test_medium_roundtrip () =
  List.iter
    (fun m ->
      match Medium.of_string (Medium.to_string m) with
      | Some m' -> check tbool (Medium.to_string m) true (Medium.equal m m')
      | None -> Alcotest.failf "of_string failed for %s" (Medium.to_string m))
    Medium.all

(* --- addresses ----------------------------------------------------- *)

let test_address_v () =
  let a = Address.v "10.0.0.1" 5004 in
  check tstring "to_string" "10.0.0.1:5004" (Address.to_string a)

let test_address_invalid () =
  Alcotest.check_raises "empty host" (Invalid_argument "Address.v: empty host") (fun () ->
      ignore (Address.v "" 80));
  Alcotest.check_raises "bad port" (Invalid_argument "Address.v: port out of range")
    (fun () -> ignore (Address.v "h" 0));
  Alcotest.check_raises "big port" (Invalid_argument "Address.v: port out of range")
    (fun () -> ignore (Address.v "h" 70000))

(* --- descriptors --------------------------------------------------- *)

let addr = Address.v "192.168.1.10" 6000

let test_descriptor_make () =
  let d = Descriptor.make ~owner:"A" ~version:0 addr [ Codec.G711; Codec.G726 ] in
  check tbool "offers media" true (Descriptor.offers_media d);
  check tint "codecs" 2 (List.length (Descriptor.codecs d));
  check tbool "supports G711" true (Descriptor.supports d Codec.G711);
  check tbool "no H261" false (Descriptor.supports d Codec.H261)

let test_descriptor_no_media () =
  let d = Descriptor.no_media ~owner:"A" ~version:3 addr in
  check tbool "no media" false (Descriptor.offers_media d);
  check tbool "no codecs" true (Descriptor.codecs d = []);
  check tbool "id" true (Descriptor.id d = ("A", 3))

let test_descriptor_empty_codecs_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Descriptor.make: empty codec list")
    (fun () -> ignore (Descriptor.make ~owner:"A" ~version:0 addr []))

let test_descriptor_empty_owner_rejected () =
  Alcotest.check_raises "owner" (Invalid_argument "Descriptor: empty owner") (fun () ->
      ignore (Descriptor.no_media ~owner:"" ~version:0 addr))

(* --- selectors ----------------------------------------------------- *)

let sender = Address.v "192.168.1.20" 6002

let test_selector_answer_best () =
  (* The sender should choose the highest-priority codec of the
     descriptor that it is willing to send (paper section VI-B). *)
  let d = Descriptor.make ~owner:"A" ~version:1 addr [ Codec.G711; Codec.G726; Codec.G729 ] in
  let s = Selector.answer d ~sender ~willing:[ Codec.G729; Codec.G726 ] ~mute_out:false in
  check tbool "responds" true (Selector.responds_to_descriptor s d);
  check tbool "transmits" true (Selector.transmits s);
  match Selector.codec s with
  | Some c -> check tstring "best common" "G.726" (Codec.to_string c)
  | None -> Alcotest.fail "expected a codec"

let test_selector_answer_muted () =
  let d = Descriptor.make ~owner:"A" ~version:1 addr [ Codec.G711 ] in
  let s = Selector.answer d ~sender ~willing:[ Codec.G711 ] ~mute_out:true in
  check tbool "no media when muted" false (Selector.transmits s)

let test_selector_answer_no_media_descriptor () =
  (* The only legal response to a noMedia descriptor is a noMedia
     selector. *)
  let d = Descriptor.no_media ~owner:"A" ~version:2 addr in
  let s = Selector.answer d ~sender ~willing:[ Codec.G711 ] ~mute_out:false in
  check tbool "noMedia" false (Selector.transmits s);
  check tbool "responds" true (Selector.responds_to_descriptor s d)

let test_selector_answer_disjoint () =
  let d = Descriptor.make ~owner:"A" ~version:1 addr [ Codec.H264 ] in
  let s = Selector.answer d ~sender ~willing:[ Codec.G711 ] ~mute_out:false in
  check tbool "no common codec" false (Selector.transmits s)

let test_selector_version_mismatch () =
  let d1 = Descriptor.make ~owner:"A" ~version:1 addr [ Codec.G711 ] in
  let d2 = Descriptor.make ~owner:"A" ~version:2 addr [ Codec.G711 ] in
  let s = Selector.answer d1 ~sender ~willing:[ Codec.G711 ] ~mute_out:false in
  check tbool "matches v1" true (Selector.responds_to_descriptor s d1);
  check tbool "not v2" false (Selector.responds_to_descriptor s d2)

(* --- signals ------------------------------------------------------- *)

let test_signal_names () =
  let d = Descriptor.make ~owner:"A" ~version:0 addr [ Codec.G711 ] in
  let sel = Selector.answer d ~sender ~willing:[ Codec.G711 ] ~mute_out:false in
  let cases =
    [
      (Signal.Open (Medium.Audio, d), "open");
      (Signal.Oack d, "oack");
      (Signal.Close, "close");
      (Signal.Closeack, "closeack");
      (Signal.Describe d, "describe");
      (Signal.Select sel, "select");
    ]
  in
  List.iter (fun (s, n) -> check tstring n n (Signal.name s)) cases

let test_signal_descriptor_extraction () =
  let d = Descriptor.make ~owner:"A" ~version:0 addr [ Codec.G711 ] in
  check tbool "open" true (Signal.descriptor (Signal.Open (Medium.Audio, d)) = Some d);
  check tbool "close" true (Signal.descriptor Signal.Close = None)

(* --- qcheck properties --------------------------------------------- *)

let codec_gen = QCheck2.Gen.oneofl Codec.all

let arb_codec_list = QCheck2.Gen.(list_size (int_range 1 5) codec_gen)

let prop_answer_always_responds =
  QCheck2.Test.make ~name:"selector answers identify their descriptor" ~count:500
    QCheck2.Gen.(pair arb_codec_list (pair arb_codec_list bool))
    (fun (offered, (willing, mute_out)) ->
      let d = Descriptor.make ~owner:"X" ~version:7 addr offered in
      let s = Selector.answer d ~sender ~willing ~mute_out in
      Selector.responds_to_descriptor s d)

let prop_answer_codec_in_both =
  QCheck2.Test.make ~name:"selected codec is offered and willing" ~count:500
    QCheck2.Gen.(pair arb_codec_list arb_codec_list)
    (fun (offered, willing) ->
      let d = Descriptor.make ~owner:"X" ~version:1 addr offered in
      let s = Selector.answer d ~sender ~willing ~mute_out:false in
      match Selector.codec s with
      | None -> not (List.exists (fun c -> List.mem c willing) offered)
      | Some c -> List.mem c offered && List.mem c willing)

let prop_answer_optimal =
  QCheck2.Test.make ~name:"selected codec is first acceptable in descriptor order"
    ~count:500
    QCheck2.Gen.(pair arb_codec_list arb_codec_list)
    (fun (offered, willing) ->
      let d = Descriptor.make ~owner:"X" ~version:1 addr offered in
      let s = Selector.answer d ~sender ~willing ~mute_out:false in
      match Selector.codec s with
      | None -> true
      | Some c ->
        let rec first_ok = function
          | [] -> None
          | x :: rest -> if List.mem x willing then Some x else first_ok rest
        in
        first_ok offered = Some c)

(* --- identity cache ------------------------------------------------- *)

(* A lookup hits only on the very block cached in its slot: an equal
   but physically distinct key, or a key that evicted the slot, asks the
   table again. *)
let test_ident_cache_identity () =
  let c = Ident_cache.create 4 ~absent:(Bytes.to_string (Bytes.make 1 '?')) 0 in
  let asked = ref 0 in
  let table n s = incr asked; n + String.length s in
  let find s = Ident_cache.find c ~slot:(Ident_cache.string_slot s) s 100 table in
  let a = "alpha" and a' = Bytes.to_string (Bytes.of_string "alpha") in
  check tint "miss asks the table" 105 (find a);
  check tint "hit returns the cached value" 105 (find a);
  check tint "one table call for two lookups of one block" 1 !asked;
  check tint "an equal copy is a different block" 105 (find a');
  check tint "the copy asked the table" 2 !asked;
  check tint "the copy now owns the slot" 3 (ignore (find a); !asked)

let test_ident_cache_size () =
  Alcotest.check_raises "size 3"
    (Invalid_argument "Ident_cache.create: size must be a power of two") (fun () ->
      ignore (Ident_cache.create 3 ~absent:"" 0))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_answer_always_responds; prop_answer_codec_in_both; prop_answer_optimal ]

let () =
  Alcotest.run "types"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "case-insensitive" `Quick test_codec_case_insensitive;
          Alcotest.test_case "unknown" `Quick test_codec_unknown;
          Alcotest.test_case "bandwidth positive" `Quick test_codec_bandwidth_positive;
          Alcotest.test_case "G.711 vs G.726" `Quick test_codec_g711_vs_g726;
          Alcotest.test_case "kinds cover" `Quick test_codec_kinds_cover;
        ] );
      ( "medium",
        [
          Alcotest.test_case "codecs sorted" `Quick test_medium_codecs_sorted;
          Alcotest.test_case "supports" `Quick test_medium_supports;
          Alcotest.test_case "roundtrip" `Quick test_medium_roundtrip;
        ] );
      ( "address",
        [
          Alcotest.test_case "build" `Quick test_address_v;
          Alcotest.test_case "invalid" `Quick test_address_invalid;
        ] );
      ( "descriptor",
        [
          Alcotest.test_case "make" `Quick test_descriptor_make;
          Alcotest.test_case "noMedia" `Quick test_descriptor_no_media;
          Alcotest.test_case "empty codecs rejected" `Quick test_descriptor_empty_codecs_rejected;
          Alcotest.test_case "empty owner rejected" `Quick test_descriptor_empty_owner_rejected;
        ] );
      ( "selector",
        [
          Alcotest.test_case "best common codec" `Quick test_selector_answer_best;
          Alcotest.test_case "muted" `Quick test_selector_answer_muted;
          Alcotest.test_case "noMedia descriptor" `Quick test_selector_answer_no_media_descriptor;
          Alcotest.test_case "disjoint codecs" `Quick test_selector_answer_disjoint;
          Alcotest.test_case "version mismatch" `Quick test_selector_version_mismatch;
        ] );
      ( "signal",
        [
          Alcotest.test_case "names" `Quick test_signal_names;
          Alcotest.test_case "descriptor extraction" `Quick test_signal_descriptor_extraction;
        ] );
      ( "identcache",
        [
          Alcotest.test_case "identity hits only" `Quick test_ident_cache_identity;
          Alcotest.test_case "power-of-two size" `Quick test_ident_cache_size;
        ] );
      ("properties", qcheck_cases);
    ]
