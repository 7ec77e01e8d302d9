(* Every metric the suite reports, in print order, with its unit.  Each
   workload fills the end-to-end list completely and the per-layer list
   as far as it exercises each layer; a per-layer metric of a layer the
   workload bypasses reads 0.  That is why no per-layer metric is a
   time: layer costs are rates (operations per second of that layer's
   self time), shares of the traced wall, counts or ratios, all of which
   have an honest 0.  BENCHMARK.json at the repository root lists the
   same names and units with each metric's direction, README.md says
   what each one means and which end-to-end metric it should move, and
   run.py checks on every run that the suite and BENCHMARK.json agree. *)

type entry = { name : string; unit_ : string }
type metric = { name : string; value : float; unit_ : string }

(* The layers a traced pass attributes self time to: the library's
   module groups, with [kernel] standing for the protocol drive inside
   [Session] ([Timed], [Netsys], the engines and the net layer), and
   [bench] for the suite's own glue. *)
let layers = [ "apps"; "runtime"; "kernel"; "obs"; "mc"; "daemon"; "bench" ]

(* A value that is not finite cannot be printed as JSON; it can only
   come from a denominator the workload never filled. *)
let metric name unit_ value : metric =
  { name; unit_; value = (if Float.is_finite value then value else 0.0) }

let e name unit_ : entry = { name; unit_ }

let end_to_end =
  [ e "setup_s" "s"; e "throughput_per_s" "1/s"; e "latency_ms" "ms"; e "peak_rss_mb" "MB" ]

let kinds = [ "path"; "ctd"; "conf"; "prepaid"; "collab_tv" ]
let per_kind prefix unit_ = List.map (fun k -> e (prefix ^ "." ^ k) unit_) kinds

let per_layer =
  (* the traced pass's own ledger *)
  [ e "trace.overhead_pct" "%"; e "trace.residual_pct" "%"; e "trace.spans" "count" ]
  @ List.map (fun l -> e ("self." ^ l ^ "_pct") "%") layers
  (* apps and runtime: session construction and the phased lifecycle *)
  @ [ e "session.creates_per_s" "1/s"; e "session.setups_per_s" "1/s" ]
  @ per_kind "session.setups_per_s" "1/s"
  @ [ e "session.launches_per_s" "1/s"; e "session.retires_per_s" "1/s" ]
  (* the protocol kernel and the allocation it drives *)
  @ [ e "kernel.events_per_s" "1/s" ]
  @ per_kind "kernel.events_per_s" "1/s"
  @ [
      e "kernel.events_per_session" "count";
      e "fleet.events_per_s" "1/s";
      e "gc.minor_words_per_event" "words";
      e "gc.promoted_words_per_event" "words";
      (* net: the impaired network and the reliability layer *)
      e "net.retransmissions_per_session" "count";
      e "net.drops_per_session" "count";
      e "net.useful_recv_ratio" "ratio";
      (* obs: recording and the three analyses *)
      e "obs.trace_entries_per_session" "count";
      e "obs.metrics_per_s" "1/s";
      e "obs.monitor_per_s" "1/s";
      e "obs.judge_per_s" "1/s";
      (* churn orchestration and the resident heap *)
      e "churn.peak_resident" "count";
      e "churn.pool_slots" "count";
      e "churn.minor_words_per_session" "words";
      e "churn.major_collections" "count";
      e "churn.pause_ratio" "ratio";
      e "churn.pause_batches" "count";
      e "churn.digest_pct" "%";
      e "churn.orchestration_pct" "%";
      (* mc: the explicit-state checker *)
      e "mc.successors_per_s" "1/s";
      e "mc.packs_per_s" "1/s";
      e "mc.explore_other_pct" "%";
      e "mc.safety_pct" "%";
      e "mc.temporal_pct" "%";
      e "mc.states_per_s" "1/s";
      e "mc.transitions_per_state" "ratio";
      e "mc.key_bytes" "B";
      e "mc.new_state_ratio" "ratio";
      e "mc.par_speedup" "ratio";
      (* daemon: per-verb costs seen by the client *)
      e "daemon.ping_per_s" "1/s";
      e "daemon.create_per_s" "1/s";
      e "daemon.status_per_s" "1/s";
      e "daemon.teardown_per_s" "1/s";
      e "daemon.status_p99_ratio" "ratio";
      e "daemon.setup_p99_ratio" "ratio";
      e "daemon.flowing_overhead_pct" "%";
      e "daemon.closing_overhead_pct" "%";
      e "daemon.create_growth" "ratio";
      e "daemon.status_growth" "ratio";
      e "daemon.heap_kb_per_call" "KB";
    ]

(* The catalog's metrics in order, valued from [values]; a name the
   workload did not measure reads 0. *)
let fill entries values =
  List.map
    (fun (en : entry) ->
      metric en.name en.unit_ (Option.value ~default:0.0 (List.assoc_opt en.name values)))
    entries

let missing entries values =
  List.filter_map
    (fun (en : entry) -> if List.mem_assoc en.name values then None else Some en.name)
    entries
