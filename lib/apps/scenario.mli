(** Fleet-facing session constructors for the application scenarios.

    Each constructor packages one of the paper's applications as a
    {!Mediactl_runtime.Session}: the network build (plus any untimed
    settle) goes in the session's [make] thunk, goal engagement and
    program launches in its [boot], and every random choice — the
    engine seed, the impairment seed, a Click-to-Dial callee being
    busy, which conference user gets muted, which mixing policy the
    bridge is given — is drawn from the session's private stream, so a
    fleet of these is deterministic whatever the domain count.

    A start network depends on its build alone, so each domain builds
    and settles it once, for the first session of that build, and
    every later session starts from the same persistent value with the
    settle's recorded trace entries replayed into its own recording.
    Outcomes are exactly those of a fresh build per session (DESIGN.md
    section 10). *)

open Mediactl_runtime

type kind =
  | Path  (** openslot--openslot handshake, judged against []<>bothFlowing *)
  | Ctd  (** Click-to-Dial, Figure 6 (callee answers or is busy) *)
  | Conf
      (** N-party conference mixer, Figure 7: N legs through the
          [conf] server to the bridge, the drawn partial-muting policy
          pushed to the bridge as mixing-matrix meta-signals, one full
          mute/unmute, judged N-way against []<> allFlowing *)
  | Prepaid  (** the Figure-13 snapshot-4 convergence *)
  | Collab_tv  (** collaborative TV: pause, play, daughter leaves, Figure 8 *)
  | Transfer
      (** attended transfer feature chain: the service box moves its
          flowlink from the agent to the supervisor mid-call *)
  | Barge
      (** barge-in feature chain: a two-party conference becomes
          three-party mid-call via {!Conference.add_user} *)
  | Moh
      (** music-on-hold feature chain: the hold box parks the agent
          and relinks the customer to a music server, then resumes *)
  | Mixed  (** cycle through the {!all} pool by session id *)

val all : kind list
(** The [Mixed] cycling pool, in order — the historical five concrete
    kinds ([Path]; [Ctd]; [Conf]; [Prepaid]; [Collab_tv]), with [Conf]
    now the N-party mixer.  The feature chains are selectable by name
    but stay out of the pool, keeping the [id mod 5] kind assignment
    stable. *)

val to_string : kind -> string
val of_string : string -> kind option

val session :
  ?n:float ->
  ?c:float ->
  ?loss:float ->
  ?parties:int ->
  kind ->
  id:int ->
  rng:Mediactl_sim.Rng.t ->
  Session.t
(** [session kind ~id ~rng] builds one session; the signature matches
    what {!Mediactl_runtime.Fleet.run} expects from its factory (after
    fixing the kind).  [loss] > 0 runs the session over the impaired
    network with the reliability layer attached, seeded from [rng].
    [parties] (default 3) sizes the [Conf] roster and is ignored by
    the other kinds. *)

val churn_session :
  ?n:float ->
  ?c:float ->
  ?loss:float ->
  ?parties:int ->
  kind ->
  id:int ->
  rng:Mediactl_sim.Rng.t ->
  Session.t
(** Like {!session}, but built for the phased churn lifecycle
    ({!Mediactl_runtime.Fleet.churn}): a [Path] session carries a
    hangup closure that re-engages both ends to [Close_end] at
    retirement, and a [Conf] session one that hangs every leg up from
    both its ends; both are judged against the §V disjunction
    [(<>[] allClosed) \/ ([]<> allFlowing)] (over one leg or N)
    instead of [[]<> allFlowing].  The program scenarios run their
    whole story at setup and retire as a bare finalization. *)
