open Recalg_kernel

(* Global observability state. [enabled_flag] is true iff a sink is
   installed; the front end is live — spans pushed, emissions made —
   when a sink is installed {e or} the retained {!Metrics} registry is
   collecting, each checked with a single load on the fast path. The
   span stack holds the active (path, sid) pairs, innermost first —
   each frame caches the full " > "-joined path so opening a span is
   one string append, not a walk of the stack — and is only touched
   while live (so it is [] in disabled runs and the fuel-context
   provider stays silent there). The stack is domain-local:
   every pool worker nests its own spans independently, and the
   fuel-context provider reports the path of whichever domain blew the
   budget. Span ids are drawn from one atomic counter, so they are
   monotone in opening order across the whole process (reset when a sink
   is installed over the disabled state, like the event clock). Sink
   installation happens on the main domain before any parallel region
   (visibility piggybacks on the pool's mutex ordering); emission
   serialises through [emit_lock] while the pool is live, so stateful
   sinks (jsonl channels, memory buffers) never
   see concurrent [emit]s. Metrics recording needs no lock: each domain
   writes its own registry shard. *)
let enabled_flag = ref false
let sink = ref Sink.null
let t0 = ref 0.0
let span_ids = Atomic.make 0

let stack_key : (string * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key
let enabled () = !enabled_flag || Metrics.collecting ()
let now () = Unix.gettimeofday () -. !t0

let path () = match !(stack ()) with [] -> "" | (p, _) :: _ -> p

let emit_lock = Mutex.create ()

let emit e =
  if Pool.parallel () then begin
    Mutex.lock emit_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock emit_lock)
      (fun () -> !sink.Sink.emit e)
  end
  else !sink.Sink.emit e

let with_sink s f =
  let was_enabled = !enabled_flag and old_sink = !sink and old_t0 = !t0 in
  if not was_enabled then begin
    t0 := Unix.gettimeofday ();
    Atomic.set span_ids 0
  end;
  enabled_flag := true;
  sink := s;
  Fun.protect
    ~finally:(fun () ->
      s.Sink.flush ();
      enabled_flag := was_enabled;
      sink := old_sink;
      t0 := old_t0)
    f

let with_tee s f =
  if !enabled_flag then with_sink (Sink.tee !sink s) f else with_sink s f

let words_per_byte = 1. /. float_of_int (Sys.word_size / 8)

module Span = struct
  let run name f =
    if not (enabled ()) then f ()
    else begin
      let stack = stack () in
      let parent, p =
        match !stack with
        | [] -> (0, name)
        | (pp, sid) :: _ -> (sid, pp ^ " > " ^ name)
      in
      let sid = Atomic.fetch_and_add span_ids 1 + 1 in
      stack := (p, sid) :: !stack;
      let at = now () in
      if !enabled_flag then emit (Event.Span_begin { span = p; at; sid; parent });
      (* Resource-attribution baselines, read once at entry so a flag
         flip mid-span cannot mispair them: fuel via two pure reads of
         the ambient budget, allocation via the domain-local GC
         counter. *)
      let collecting = Metrics.collecting () in
      let fuel0 = if collecting then Limits.active_remaining () else None in
      let alloc0 = if collecting then Gc.allocated_bytes () else 0. in
      Fun.protect
        ~finally:(fun () ->
          let at' = now () in
          let ms = (at' -. at) *. 1000. in
          if !enabled_flag then
            emit (Event.Span_end { span = p; at = at'; ms; sid });
          if collecting then begin
            let fuel =
              match fuel0, Limits.active_remaining () with
              | Some before, Some after -> max 0 (before - after)
              | (Some _ | None), _ -> 0
            in
            let alloc_words =
              Float.max 0. ((Gc.allocated_bytes () -. alloc0) *. words_per_byte)
            in
            Metrics.record_span p ~ms ~fuel ~alloc_words
          end;
          stack := List.tl !stack)
        f
    end

  let runf namef f = if not (enabled ()) then f () else run (namef ()) f
end

module Counter = struct
  let emit name n =
    if !enabled_flag then
      emit (Event.Count { counter = name; span = path (); at = now (); n });
    if Metrics.collecting () then Metrics.record_count name n

  let emitf name nf = if enabled () then emit name (nf ())
end

module Gauge = struct
  let emit name value =
    if !enabled_flag then
      emit (Event.Gauge { counter = name; span = path (); at = now (); value });
    if Metrics.collecting () then Metrics.record_gauge name value
end

let span = Span.run
let spanf = Span.runf
let count = Counter.emit
let countf = Counter.emitf
let gauge = Gauge.emit

(* Attach the active span path to fuel-exhaustion messages. With the
   front end disabled (or outside any span) the stack is empty, the
   provider answers [None], and the Diverged message is byte-identical
   to the uninstrumented one. *)
let () =
  Limits.set_context (fun () ->
      if !(stack ()) <> [] then Some (path ()) else None)
