(** Execute a partitioned ([2n]-table) plan against a {!Engine}.

    The partitioned planner needs the arrival matrix {e per partition},
    and partition membership is a property of each concrete modification —
    so the stream is materialized first: {!materialize} draws every
    modification for a logical arrival matrix up front, {!partitioned_arrivals}
    classifies it into the [2n]-wide matrix the spec is built from, and
    {!run} replays it step by step, applying the plan's per-partition
    batches.  Because the spec's arrivals come from the very stream being
    replayed, plan validity transfers exactly. *)

type stream = (int * Ivm.Change.t) list array
(** Per step, the drawn [(logical table, modification)]s in draw order. *)

val materialize :
  feeds:Tpcr.Updates.feeds -> arrivals:int array array -> stream
(** Draw [arrivals.(t).(i)] modifications per step and table, in step then
    table order — deterministic for seeded feeds. *)

val partitioned_arrivals : Engine.t -> stream -> int array array
(** Classify the stream with the engine's current splits into a
    [(horizon+1) × 2n] arrival matrix. *)

type result = { cost_units : float; batches : int }

val run : Engine.t -> stream -> spec:Abivm.Spec.t -> plan:Abivm.Plan.t -> result
(** Replay the stream and apply [plan]'s per-partition batches; total
    metered cost and batch count.  The plan must be valid for [spec],
    the engine must start with empty queues, and the plan must drain
    everything by the horizon; [Invalid_argument] otherwise.  No drift
    monitoring happens here — a repartition would remap the spec's
    partition indices mid-plan. *)
