open Mediactl_types
open Mediactl_core
open Mediactl_runtime
module Rng = Mediactl_sim.Rng
module Trace = Mediactl_obs.Trace

type kind =
  | Path
  | Ctd
  | Conf
  | Prepaid
  | Collab_tv
  | Transfer
  | Barge
  | Moh
  | Mixed

(* The Mixed pool.  Kept at the historical five members (the new
   N-party [Conf] replacing the path-shaped stand-in) so [Mixed]'s
   [id mod 5] kind assignment is stable; the feature chains are
   selectable but stay out of the pool. *)
let all = [ Path; Ctd; Conf; Prepaid; Collab_tv ]

let to_string = function
  | Path -> "path"
  | Ctd -> "ctd"
  | Conf -> "conf"
  | Prepaid -> "prepaid"
  | Collab_tv -> "ctv"
  | Transfer -> "transfer"
  | Barge -> "barge"
  | Moh -> "moh"
  | Mixed -> "mixed"

let of_string = function
  | "path" -> Some Path
  | "ctd" -> Some Ctd
  | "conf" -> Some Conf
  | "prepaid" -> Some Prepaid
  | "ctv" -> Some Collab_tv
  | "transfer" -> Some Transfer
  | "barge" -> Some Barge
  | "moh" -> Some Moh
  | "mixed" -> Some Mixed
  | _ -> None

(* Loss > 0 puts the session on the impaired network with the go-back-N
   reliability layer on top, the impairment engine seeded from the
   session's own stream — so a lossy fleet is exactly as deterministic
   as a clean one. *)
let attach_loss ~loss t =
  if loss > 0.0 then begin
    let seed = Rng.fork_seed (Session.rng t) in
    let impair =
      Mediactl_net.Impair.create ~seed ~default:(Mediactl_net.Policy.lossy loss) ()
    in
    ignore (Mediactl_net.Reliable.attach impair (Session.sim t))
  end

let settle net = fst (Netsys.run net)

(* ------------------------------------------------------------------ *)
(* Shared starts

   A scenario's starting network is a pure function of its build: no
   build reads the session's stream, clock, latencies or loss (all of
   those are consumed in [boot]), and a [Netsys.t] is persistent —
   every operation on it returns a new value.  So each
   domain builds and settles a start once, inside the first session's
   recording, and keeps the settled network with a {!Trace.capture} of
   the entries the build recorded.  Every later session of that build
   on the domain starts from the same network and replays the capture
   into its own bracket: the same entries, numbered on from the
   bracket's start, at the same reset clock — byte for byte the trace
   a fresh build records.  A start built outside a recording is not
   kept: its capture would be empty.  DESIGN section 10. *)

(* One constructor per distinct build; [build] is a function of the
   key alone, so equal keys always mean equal builds ([barge] shares
   the 2-party conference's start). *)
type start =
  | Path_start
  | Ctd_start
  | Conf_start of int  (* roster size *)
  | Transfer_start
  | Moh_start
  | Prepaid_start
  | Collab_tv_start

let build = function
  | Path_start -> Pathlab.topology ~flowlinks:0 ()
  | Ctd_start ->
    List.fold_left Netsys.add_box Netsys.empty [ "ctd"; "phone1"; "phone2"; "tones" ]
  | Conf_start parties -> settle (Conference.build ~users:(Conference.default_users parties))
  | Transfer_start -> settle (Feature.transfer_build ())
  | Moh_start -> settle (Feature.moh_build ())
  | Prepaid_start -> Prepaid.fig13_start ()
  | Collab_tv_start -> settle (Collab_tv.build ())

let starts : (start, Netsys.t * Trace.capture) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

(* A session's network thunk: the domain's settled start, its build's
   entries replayed into the current bracket. *)
let start key () =
  let table = Domain.DLS.get starts in
  match Hashtbl.find_opt table key with
  | Some (net, prefix) ->
    Trace.replay prefix;
    net
  | None ->
    let net, prefix = Trace.capture (fun () -> build key) in
    if Trace.enabled () then Hashtbl.add table key (net, prefix);
    net

(* The obligation a session is judged against.  Under loss the
   flowing predicate is the structural one, as in the model checker. *)
let judged ~loss obligation legs =
  { Mediactl_obs.Monitor.structural = loss > 0.0; obligation; legs }

(* openslot--openslot path configuration, judged against its Section V
   obligation ([]<> bothFlowing). *)
let path ?n ?c ~loss ~id ~rng () =
  Session.create ?n ?c ~id ~scenario:"path" ~rng
    ~judge:
      (judged ~loss
         (Semantics.spec_of Semantics.Open_end Semantics.Open_end)
         [ Pathlab.ends ~flowlinks:0 ])
    ~boot:(fun t ->
      attach_loss ~loss t;
      let sim = Session.sim t in
      Timed.apply sim (Pathlab.engage_left Semantics.Open_end);
      Timed.apply sim (Pathlab.engage_right Semantics.Open_end ~flowlinks:0))
    (start Path_start)

(* Click-to-Dial (Figure 6).  The callee device answers or is busy,
   drawn from the session stream, so a fleet exercises both program
   branches deterministically. *)
let ctd ?n ?c ~loss ~id ~rng () =
  let local name = Local.endpoint ~owner:name (Address.v "10.0.0.7" 5000) [ Codec.G711 ] in
  Session.create ?n ?c ~id ~scenario:"ctd" ~rng
    ~boot:(fun t ->
      attach_loss ~loss t;
      let sim = Session.sim t in
      let callee =
        if Rng.float (Session.rng t) 1.0 < 0.2 then Device.Busy else Device.Answers
      in
      Device.install sim ~box:"phone1" (local "user1") Device.Answers;
      Device.install sim ~box:"phone2" (local "user2") callee;
      Device.install sim ~box:"tones" (local "tonegen") Device.Answers;
      ignore
        (Program.launch sim
           (Click_to_dial.program ~box:"ctd" ~caller_device:"phone1" ~callee_device:"phone2"
              ~tone_server:"tones" ~no_answer_timeout:30_000.0)))
    (start Ctd_start)

(* A partial-muting policy drawn from the session stream, so a fleet
   exercises all four mixing-matrix shapes deterministically.  Always
   one draw, whatever the roster size. *)
let draw_policy names rng =
  match (names, Rng.int rng 4) with
  | a :: b :: c :: _, 0 -> Conference.Emergency { calltaker = a; caller = b; responder = c }
  | a :: b :: c :: _, 1 -> Conference.Whisper { trainee = a; customer = b; coach = c }
  | _ :: b :: _, 2 -> Conference.Business [ b ]
  | _, _ -> Conference.Open_floor

(* Conference (Figure 7), the real N-party mixer: N legs settle untimed
   at t=0 (inside the recording), the server pushes the drawn policy's
   mixing matrix to the bridge as meta-signals, and one user is fully
   muted and unmuted under the timed driver.  Judged N-way: []<>
   allFlowing over every participant leg. *)
let conf_boot ~loss ~names ~parties t =
  attach_loss ~loss t;
  let sim = Session.sim t in
  let policy = draw_policy names (Session.rng t) in
  List.iter
    (fun (chan, meta) -> Timed.send_meta sim ~chan ~from:"conf" meta)
    (Conference.matrix_metas policy ~participants:names);
  let muted = List.nth names (Rng.int (Session.rng t) parties) in
  Timed.apply sim (Conference.full_mute ~user:muted);
  Timed.after sim 400.0 (fun sim -> Timed.apply sim (Conference.unmute ~user:muted))

let conf ?n ?c ?(parties = 3) ~loss ~id ~rng () =
  let names = List.map fst (Conference.default_users parties) in
  Session.create ?n ?c ~id ~scenario:"conf" ~rng
    ~judge:
      (judged ~loss Mediactl_obs.Monitor.Always_eventually_flowing
         (Conference.legs ~users:names))
    ~boot:(conf_boot ~loss ~names ~parties)
    (start (Conf_start parties))

(* Attended transfer: customer--agent established untimed, the transfer
   fires at 300 ms, and the obligation judges the customer's final path
   to the supervisor. *)
let transfer ?n ?c ~loss ~id ~rng () =
  Session.create ?n ?c ~id ~scenario:"transfer" ~rng
    ~judge:
      (judged ~loss Mediactl_obs.Monitor.Always_eventually_flowing [ Feature.transfer_leg ])
    ~boot:(fun t ->
      attach_loss ~loss t;
      let sim = Session.sim t in
      Timed.after sim 300.0 (fun sim -> Timed.apply sim Feature.transfer))
    (start Transfer_start)

(* Barge-in: a two-party conference becomes three-party mid-call when a
   supervisor joins through [Conference.add_user]; every leg including
   the late one must end up flowing. *)
let barge ?n ?c ~loss ~id ~rng () =
  let names = List.map fst (Conference.default_users 2) in
  let joiner = List.nth (Conference.default_users 3) 2 in
  let roster = names @ [ fst joiner ] in
  Session.create ?n ?c ~id ~scenario:"barge" ~rng
    ~judge:
      (judged ~loss Mediactl_obs.Monitor.Always_eventually_flowing
         (Conference.legs ~users:roster))
    ~boot:(fun t ->
      attach_loss ~loss t;
      let sim = Session.sim t in
      List.iter
        (fun (chan, meta) -> Timed.send_meta sim ~chan ~from:"conf" meta)
        (Conference.matrix_metas Conference.Open_floor ~participants:names);
      Timed.after sim 250.0 (fun sim ->
        Timed.apply sim (Conference.add_user ~user:joiner ~port:6004);
        List.iter
          (fun (chan, meta) -> Timed.send_meta sim ~chan ~from:"conf" meta)
          (Conference.matrix_metas Conference.Open_floor ~participants:roster)))
    (start (Conf_start 2))

(* Music on hold: the hold box parks the agent and relinks the customer
   to the music server at 250 ms, then restores the talk path at
   600 ms; the customer--agent leg must end flowing. *)
let moh ?n ?c ~loss ~id ~rng () =
  Session.create ?n ?c ~id ~scenario:"moh" ~rng
    ~judge:(judged ~loss Mediactl_obs.Monitor.Always_eventually_flowing [ Feature.moh_leg ])
    ~boot:(fun t ->
      attach_loss ~loss t;
      let sim = Session.sim t in
      Timed.after sim 250.0 (fun sim -> Timed.apply sim Feature.hold);
      Timed.after sim 600.0 (fun sim -> Timed.apply sim Feature.resume))
    (start Moh_start)

(* The prepaid running example, snapshots 1-3 settled untimed, then the
   Figure-13 concurrent snapshot-4 convergence under the clock. *)
let prepaid ?n ?c ~loss ~id ~rng () =
  Session.create ?n ?c ~id ~scenario:"prepaid" ~rng
    ~boot:(fun t ->
      attach_loss ~loss t;
      let sim = Session.sim t in
      Timed.apply sim Prepaid.snapshot4_pc;
      Timed.apply sim Prepaid.snapshot4_pbx)
    (start Prepaid_start)

(* Collaborative TV (Figure 8): pause, play, and the daughter leaving,
   spaced out under the timed driver. *)
let collab_tv ?n ?c ~loss ~id ~rng () =
  Session.create ?n ?c ~id ~scenario:"ctv" ~rng
    ~boot:(fun t ->
      attach_loss ~loss t;
      let sim = Session.sim t in
      Timed.apply sim Collab_tv.pause;
      Timed.after sim 300.0 (fun sim -> Timed.apply sim Collab_tv.play);
      Timed.after sim 600.0 (fun sim -> Timed.apply sim Collab_tv.daughter_leaves))
    (start Collab_tv_start)

let rec session ?n ?c ?(loss = 0.0) ?parties kind ~id ~rng =
  match kind with
  | Path -> path ?n ?c ~loss ~id ~rng ()
  | Ctd -> ctd ?n ?c ~loss ~id ~rng ()
  | Conf -> conf ?n ?c ?parties ~loss ~id ~rng ()
  | Prepaid -> prepaid ?n ?c ~loss ~id ~rng ()
  | Collab_tv -> collab_tv ?n ?c ~loss ~id ~rng ()
  | Transfer -> transfer ?n ?c ~loss ~id ~rng ()
  | Barge -> barge ?n ?c ~loss ~id ~rng ()
  | Moh -> moh ?n ?c ~loss ~id ~rng ()
  | Mixed ->
    session ?n ?c ~loss ?parties (List.nth all (id mod List.length all)) ~id ~rng

(* The churned path: opened at arrival, torn down at hangup by
   re-engaging both ends to [Close_end].  The obligation weakens from
   [[]<> bothFlowing] — which any torn-down call would "violate" at
   its closed quiescent cutoff — to the §V disjunction
   [(<>[] bothClosed) \/ ([]<> bothFlowing)], the same shape the
   daemon judges hung-up calls against. *)
let path_churn ?n ?c ~loss ~id ~rng () =
  Session.create ?n ?c ~id ~scenario:"path" ~rng
    ~judge:
      (judged ~loss Mediactl_obs.Monitor.Closed_or_flowing [ Pathlab.ends ~flowlinks:0 ])
    ~hangup:(fun t ->
      let sim = Session.sim t in
      Timed.apply sim (Pathlab.engage_left Semantics.Close_end);
      Timed.apply sim (Pathlab.engage_right Semantics.Close_end ~flowlinks:0))
    ~boot:(fun t ->
      attach_loss ~loss t;
      let sim = Session.sim t in
      Timed.apply sim (Pathlab.engage_left Semantics.Open_end);
      Timed.apply sim (Pathlab.engage_right Semantics.Open_end ~flowlinks:0))
    (start Path_start)

(* The churned conference: the N legs come up at launch exactly as in
   [conf]; retirement hangs every leg up from both ends, so the §V
   disjunction (<>[] allClosed) \/ ([]<> allFlowing) — quantified over
   all N legs — is what a torn-down conference is judged against. *)
let conf_churn ?n ?c ?(parties = 3) ~loss ~id ~rng () =
  let names = List.map fst (Conference.default_users parties) in
  Session.create ?n ?c ~id ~scenario:"conf" ~rng
    ~judge:
      (judged ~loss Mediactl_obs.Monitor.Closed_or_flowing (Conference.legs ~users:names))
    ~hangup:(fun t ->
      let sim = Session.sim t in
      List.iter (fun u -> Timed.apply sim (Conference.hangup_user ~user:u)) names)
    ~boot:(conf_boot ~loss ~names ~parties)
    (start (Conf_start parties))

let rec churn_session ?n ?c ?(loss = 0.0) ?parties kind ~id ~rng =
  match kind with
  | Path -> path_churn ?n ?c ~loss ~id ~rng ()
  | Conf -> conf_churn ?n ?c ?parties ~loss ~id ~rng ()
  | Mixed ->
    churn_session ?n ?c ~loss ?parties
      (List.nth all (id mod List.length all))
      ~id ~rng
  | (Ctd | Prepaid | Collab_tv | Transfer | Barge | Moh) as k ->
    (* These scenarios run their whole story at setup and have no
       separate teardown goals; retirement just finalizes them. *)
    session ?n ?c ~loss k ~id ~rng
