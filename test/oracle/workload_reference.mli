(** The arrival timeline as {!An2.Workload.expand} ordered it before it
    merged its two streams: the base and burst streams concatenated and
    stably sorted by time. Kept as the model that [test_tps]'s
    differential check holds the merge to. Do not use it in
    simulators. *)

val expand : An2.Workload.profile -> hosts:int -> An2.Workload.arrival list
(** [List.stable_sort] by [at] over [base @ bursts]. The base stream is
    [An2.Workload.expand] with bursts off ([burst_rate = 0]), the burst
    stream the same with the base off ([base_rate = 0]): each stream
    draws from its own seeded generator, so either comes out the same
    with the other turned off. *)
