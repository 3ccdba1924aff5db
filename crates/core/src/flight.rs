#![warn(clippy::too_many_lines)]

//! The flight state machine (§5): every dispatched GWork rides a
//! [`Flight`] through the three-stage H2D → kernel → D2H pipeline on one
//! CUDA stream, driven by the [`Ev::KernelStage`], [`Ev::D2hStage`] and
//! [`Ev::HangCheck`] events.
//!
//! A flight carries 1..n members of one job. A flight of one is the
//! paper's pipeline for a single GWork; a larger flight is a fused
//! transfer batch (see [`crate::fused`]): one fused H2D, the member
//! kernels back-to-back on the stream, one fused D2H. Member count changes
//! modelled behaviour in exactly three places:
//!
//! * **H2D.** One staging pass ([`GMemoryManager::stage`]) serves every
//!   flight. A flight of one issues one copy call per input as it stages;
//!   a larger flight issues one fused call paying α once after staging
//!   every member. The α saving is the point of batching, and a fused
//!   call for a flight of one would move every solo timeline.
//! * **Cost model.** Only a flight of one is scored and observed: a
//!   member's pro-rata share of a fused copy is not a per-call measurement.
//! * **Trace labels.** A flight of one labels its spans `op = <work
//!   name>`; a larger one `op = "fused-batch"` plus `works`. Its D2H is
//!   the same one copy call for any member count, labelled fused only for
//!   a larger flight: a copy of one item takes exactly the same time.
//!
//! Everything else treats each member as a solo work: completions are
//! counted and sampled, transients and hangs leave trace instants and
//! flight-recorder events, a missing kernel or a launch error fails the
//! member with its typed error, retries and deliveries are split-child
//! aware, and a flight of one owns its whole D2H reservation.
//!
//! [`GMemoryManager::stage`]: crate::gmemory::GMemoryManager::stage

use crate::gmemory::{pro_rata, Placement};
use crate::gstream::{Engine, Ev, GStreamManager, QueuedWork};
use crate::gwork::{CompletedWork, GWork, WorkTiming};
use crate::recovery::{Charge, FailReason, ManagerError, Rec};
use crate::session::JobId;
use gflink_gpu::DevBufId;
use gflink_memory::{HBuffer, PinnedLease};
use gflink_sim::trace::{gpu_pid, stream_tid, Cat, TraceEvent};
use gflink_sim::{EventQueue, LedgerEntry, SimTime};

/// Generation-tagged slab of flights keyed by the packed ids that ride in
/// pipeline-stage events: `(gen << 32) | slot`. A stage event that fires
/// after its flight was recovered (device loss) carries a stale generation
/// and misses cleanly — exactly the semantics the old `HashMap<u64, _>`
/// gave via never-reused keys, but lookups are now an array index with no
/// hashing on the per-work hot path (ISSUE 7).
pub(crate) struct FlightTable<T> {
    slots: Vec<(u32, Option<T>)>,
    free: Vec<u32>,
    live: usize,
}

impl<T> FlightTable<T> {
    pub(crate) fn new() -> Self {
        FlightTable {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Park a flight, minting its event id. Re-inserting after a `remove`
    /// mints a *new* id (the slot's generation advanced), so events armed
    /// against the old id stay dead.
    pub(crate) fn insert(&mut self, v: T) -> u64 {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                let e = &mut self.slots[slot as usize];
                e.1 = Some(v);
                ((e.0 as u64) << 32) | slot as u64
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("flight table overflow");
                self.slots.push((0, Some(v)));
                slot as u64
            }
        }
    }

    /// Take a flight out; `None` when the id's generation is stale (the
    /// flight was already recovered) — callers treat that as "event no
    /// longer applies".
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let (slot, gen) = ((id & u32::MAX as u64) as usize, (id >> 32) as u32);
        let e = self.slots.get_mut(slot)?;
        if e.0 != gen {
            return None;
        }
        let v = e.1.take()?;
        e.0 = e.0.wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        Some(v)
    }

    /// Peek at a live flight (stale ids miss).
    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        let (slot, gen) = ((id & u32::MAX as u64) as usize, (id >> 32) as u32);
        let e = self.slots.get(slot)?;
        if e.0 != gen {
            return None;
        }
        e.1.as_ref()
    }

    /// Mutable peek at a live flight (stale ids miss).
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let (slot, gen) = ((id & u32::MAX as u64) as usize, (id >> 32) as u32);
        let e = self.slots.get_mut(slot)?;
        if e.0 != gen {
            return None;
        }
        e.1.as_mut()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live flights with their current ids, in slot order. Callers that
    /// need a deterministic *creation* order (device-loss recovery) sort by
    /// the flights' own monotonic `seq`, not by id — slots are reused.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, (g, v))| v.as_ref().map(|v| (((*g as u64) << 32) | i as u64, v)))
    }
}

/// One entry of a GPU's parked-work queue: 1..n works of one job that
/// dispatch together as one flight (Algorithm 5.1 lines 11–18 park a batch
/// of one; the batcher flushes larger ones). The first work is held inline
/// so a batch of one costs no allocation.
pub(crate) struct Parked {
    pub(crate) head: QueuedWork,
    pub(crate) rest: Vec<QueuedWork>,
}

impl Parked {
    pub(crate) fn one(head: QueuedWork) -> Parked {
        Parked {
            head,
            rest: Vec::new(),
        }
    }

    pub(crate) fn job(&self) -> JobId {
        self.head.job
    }

    pub(crate) fn len(&self) -> usize {
        1 + self.rest.len()
    }

    pub(crate) fn works(&self) -> impl Iterator<Item = &QueuedWork> {
        std::iter::once(&self.head).chain(&self.rest)
    }

    /// The `op` label the entry's flight will carry in the trace.
    pub(crate) fn op_label(&self) -> &str {
        if self.rest.is_empty() {
            &self.head.work.name
        } else {
            "fused-batch"
        }
    }
}

/// One GWork riding a flight, with the per-work state carried between
/// pipeline-stage events.
pub(crate) struct Member {
    pub(crate) work: GWork,
    retries: u32,
    pub(crate) timing: WorkTiming,
    /// Device inputs, transient buffers and cache pins (stage 1).
    pub(crate) place: Placement,
    /// Device output buffer; `None` until allocated at dispatch.
    out_dev: Option<DevBufId>,
    emitted: Option<usize>,
    /// When this member's kernel completes (kernels run back-to-back).
    kernel_end: SimTime,
    /// Host result buffer, allocated at the D2H stage (empty before).
    output: HBuffer,
    /// A transient fault hit this member's kernel.
    faulted: bool,
}

/// A dispatched flight: 1..n members of one job on one stream, which stays
/// occupied until the D2H lands or the flight is recovered.
pub(crate) struct Flight {
    /// Monotonic creation stamp: device-loss recovery re-submits flights in
    /// `seq` order (slot ids are reused, seqs are not).
    seq: u64,
    job: JobId,
    gpu: usize,
    stream: usize,
    members: Vec<Member>,
    /// Pinned-pool staging leases backing the H2D; released once the copy
    /// has landed (kernel-stage entry) or the flight is recovered.
    staging: Vec<PinnedLease>,
    /// An injected hang wedged a member kernel; only the watchdog recovers
    /// the flight.
    hung: bool,
}

impl GStreamManager {
    /// Emit one pipeline-stage span for a flight on its stream's thread,
    /// tagged with the owning job and the flight's `op` label: the work's
    /// name for a flight of one, `fused-batch` plus `works` otherwise.
    fn trace_stage(
        &self,
        fl: &Flight,
        stage: &'static str,
        start: SimTime,
        end: SimTime,
        works: usize,
    ) {
        if self.tracer.enabled() {
            let span = TraceEvent::span(
                gpu_pid(self.worker_id, fl.gpu),
                stream_tid(fl.stream),
                Cat::Stage,
                stage,
                start,
                end,
            )
            .with_job(fl.job.0);
            self.tracer.record(match &fl.members[..] {
                [mb] => span.with_arg("op", &mb.work.name),
                _ => span
                    .with_arg("op", "fused-batch")
                    .with_arg("works", works as u64),
            });
        }
    }

    /// Emit a recovery instant (`transient`, `hang`) on a flight's stream.
    fn trace_recovery(&self, fl: &Flight, name: &'static str, t: SimTime) {
        let (pid, tid) = (gpu_pid(self.worker_id, fl.gpu), stream_tid(fl.stream));
        self.tracer.record_with(|| {
            TraceEvent::instant(pid, tid, Cat::Recovery, name, t).with_job(fl.job.0)
        });
    }

    /// Hand a stream back at `at` and wake it for Alg. 5.2.
    fn free_stream(&mut self, gpu: usize, stream: usize, at: SimTime, q: &mut EventQueue<Ev>) {
        self.stream_busy_until[gpu][stream] = at;
        q.schedule(at, Ev::StreamFree { gpu, stream });
    }

    /// Dispatch a batch onto (gpu, stream) as one flight: the stream is
    /// occupied until the D2H completes. Pipeline stages are driven by
    /// events so a stage's engine reservation is made only when its stream
    /// dependency resolves — exactly how CUDA feeds its copy/compute
    /// engines. Eagerly reserving all three stages here would block later
    /// H2Ds behind not-yet-runnable D2H slots on single-copy-engine devices.
    pub(crate) fn execute(
        &mut self,
        eng: &mut Engine<'_>,
        batch: Parked,
        gpu: usize,
        stream: usize,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        let Parked { head, mut rest } = batch;
        let job = head.job;
        let mut members = self
            .member_vecs
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(1 + rest.len()));
        let member = |qw: QueuedWork| Member {
            work: qw.work,
            retries: qw.retries,
            timing: WorkTiming {
                submitted: qw.submitted,
                started: t,
                ..WorkTiming::default()
            },
            place: Placement::default(),
            out_dev: None,
            emitted: None,
            kernel_end: SimTime::ZERO,
            output: HBuffer::zeroed(0),
            faulted: false,
        };
        members.push(member(head));
        members.extend(rest.drain(..).map(member));
        if rest.capacity() > 0 {
            self.batch_vecs.push(rest);
        }
        let session = eng.sessions.get_mut(&job).expect("session open");
        let region = &mut session.regions[gpu];
        // Stage 1: H2D (GMemoryManager; skipped per-buffer on cache hits).
        // A flight of one copies per input; a larger one fuses its copies.
        let staged = eng.gmem.stage(region, gpu, job.0, &mut members, t);
        // Output allocation (GMemoryManager, automatic).
        let mut failure = staged.failure;
        if failure.is_none() {
            for mb in &mut members {
                match eng.gmem.alloc_output(region, gpu, &mb.work, t) {
                    Ok(dev) => mb.out_dev = Some(dev),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
        }
        if let Some(err) = failure {
            // Unwind the partial placement; the stream was never occupied.
            // Every member retries on its own (retried works run solo).
            eng.gmem.release_staging(staged.staging);
            for mb in members.drain(..) {
                self.recover_member(eng, job, gpu, mb, t, FailReason::Fatal(err.clone()), q);
            }
            self.member_vecs.push(members);
            return;
        }
        // Occupy the stream until the final stage completes.
        self.stream_busy_until[gpu][stream] = SimTime::MAX;
        let seq = self.next_flight;
        self.next_flight += 1;
        let n = members.len();
        if n > 1 {
            let saved = eng.gmem.gpu(gpu).transfer_path().alpha_saved(staged.copies);
            self.fused_batches += 1;
            self.fused_works += n as u64;
            self.alpha_saved += saved;
            session.batches += 1;
            session.batched_works += n as u64;
            session.alpha_saved += saved;
        }
        let fl = Flight {
            seq,
            job,
            gpu,
            stream,
            members,
            staging: staged.staging,
            hung: false,
        };
        // Stage-1 span: from the first copy's engine start to the last
        // copy's landing. A full cache hit issues no copies — no span.
        if let Some(start) = staged.h2d_start {
            self.trace_stage(&fl, "h2d", start, staged.kernel_earliest, n);
        }
        let id = self.flights.insert(fl);
        q.schedule(staged.kernel_earliest, Ev::KernelStage(id));
    }

    /// Stage 2: once the inputs are device-resident the member kernels
    /// launch back-to-back on the flight's stream.
    pub(crate) fn on_kernel_stage(
        &mut self,
        eng: &mut Engine<'_>,
        id: u64,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        let Some(mut fl) = self.flights.remove(id) else {
            // The flight was recovered (device loss) before this fired.
            return;
        };
        // The H2D has landed: the staging buffers go back to the pool.
        eng.gmem.release_staging(std::mem::take(&mut fl.staging));
        let mut cursor = t;
        for i in 0..fl.members.len() {
            let mb = &mut fl.members[i];
            let launched = match eng.registry.get_by_id(mb.work.kernel) {
                Some(kernel) => eng
                    .gmem
                    .gpu_mut(fl.gpu)
                    .launch(
                        cursor,
                        kernel,
                        &mb.place.dev_inputs,
                        &[mb.out_dev.expect("allocated at dispatch")],
                        &mb.work.params,
                        mb.work.n_actual,
                        mb.work.n_logical,
                        mb.work.coalescing,
                    )
                    .map_err(ManagerError::Device),
                None => Err(ManagerError::KernelMissing {
                    name: mb.work.execute_name.to_string(),
                }),
            };
            match launched {
                Ok((kres, profile)) => {
                    mb.timing.kernel = kres.duration();
                    mb.emitted = profile.emitted;
                    mb.kernel_end = kres.end;
                    cursor = kres.end;
                    self.trace_stage(&fl, "kernel", kres.start, kres.end, 1);
                }
                Err(err) => {
                    // The member fails with its typed error (a device error
                    // is defensive: loss recovery normally removes flights
                    // first); the rest of the flight unwinds and retries.
                    let culprit = fl.members.remove(i);
                    let (job, gpu) = (fl.job, fl.gpu);
                    self.recover_flight(eng, fl, t, t, FailReason::RetriesExhausted, q);
                    self.recover_member(eng, job, gpu, culprit, t, FailReason::Fatal(err), q);
                    return;
                }
            }
        }
        // Scripted hang: the kernel never completes; the stream stays
        // occupied until the watchdog recovers every member.
        if eng.recovery.take_hang(fl.gpu) {
            fl.hung = true;
            self.trace_recovery(&fl, "hang", t);
            let deadline = SimTime::from_nanos(
                t.as_nanos()
                    .saturating_add(eng.recovery.hang_timeout().as_nanos()),
            );
            let id = self.flights.insert(fl);
            q.schedule(deadline, Ev::HangCheck(id));
            return;
        }
        // Transient fault injection, rolled per member: scripted, or random
        // at `failure_rate` (ECC error, lost context, a preempted device).
        // Failure is detected at kernel completion; the GPUManager reclaims
        // the member's buffers and reschedules it after backoff while the
        // survivors continue to the D2H.
        let mut faulted = 0;
        for i in 0..fl.members.len() {
            let scripted = eng.recovery.take_transient(fl.gpu);
            if scripted || eng.recovery.random_transient(&mut *eng.rng) {
                fl.members[i].faulted = true;
                faulted += 1;
                let session = eng.sessions.get_mut(&fl.job).expect("session open");
                eng.recovery.note(
                    Charge::Job(session),
                    LedgerEntry::TransientFaults,
                    1,
                    Some(Rec::at(t).on_gpu(fl.gpu)),
                );
                self.trace_recovery(&fl, "transient", t);
            }
        }
        if faulted > 0 {
            if faulted == fl.members.len() {
                // The stream frees at the (wasted) last kernel end.
                self.free_stream(fl.gpu, fl.stream, cursor, q);
            }
            let mut i = 0;
            while i < fl.members.len() {
                if fl.members[i].faulted {
                    let mb = fl.members.remove(i);
                    let at = mb.kernel_end.max(t);
                    self.recover_member(
                        eng,
                        fl.job,
                        fl.gpu,
                        mb,
                        at,
                        FailReason::RetriesExhausted,
                        q,
                    );
                } else {
                    i += 1;
                }
            }
            if fl.members.is_empty() {
                self.member_vecs.push(fl.members);
                return;
            }
        }
        let d2h_at = fl
            .members
            .iter()
            .map(|mb| mb.kernel_end)
            .max()
            .expect("non-empty");
        let id = self.flights.insert(fl);
        q.schedule(d2h_at, Ev::D2hStage(id));
    }

    /// Stage 3: results travel back in one copy call for the whole flight,
    /// split back per member — exact per-member output bytes, so digests
    /// match a run without batching bit for bit; the stream frees at the
    /// copy's end.
    pub(crate) fn on_d2h_stage(
        &mut self,
        eng: &mut Engine<'_>,
        id: u64,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        let Some(mut fl) = self.flights.remove(id) else {
            // The flight was recovered (device loss) before this fired.
            return;
        };
        let (job, gpu, stream) = (fl.job, fl.gpu, fl.stream);
        // Variable-output kernels transfer only the emitted fraction of the
        // declared capacity. A small result buffer comes from this thread's
        // free list of its size when an earlier output was dropped here.
        for mb in &mut fl.members {
            mb.timing.bytes_d2h = match mb.emitted {
                Some(e) => {
                    (mb.work.out_logical_bytes as u128 * e as u128
                        / mb.work.out_records.max(1) as u128) as u64
                }
                None => mb.work.out_logical_bytes,
            };
            mb.output = HBuffer::zeroed(mb.work.out_actual_bytes);
        }
        // One copy call for the whole flight, labelled fused for more than
        // one member.
        let n = fl.members.len();
        let items = fl.members.iter_mut().map(|mb| {
            let dev = mb.out_dev.expect("allocated at dispatch");
            (mb.timing.bytes_d2h, dev, &mut mb.output)
        });
        let copied = eng.gmem.gpu_mut(gpu).copy_d2h(t, items, n > 1);
        let r = match copied {
            Ok(r) => r,
            Err(e) => {
                // Defensive: loss recovery removes flights before this can
                // fire, but a failed readback still routes through retry.
                let reason = FailReason::Fatal(ManagerError::Device(e));
                self.recover_flight(eng, fl, t, t, reason, q);
                return;
            }
        };
        let session = eng.sessions.get_mut(&job).expect("session open");
        if n > 1 {
            let saved = eng.gmem.gpu(gpu).transfer_path().alpha_saved(n);
            self.alpha_saved += saved;
            session.alpha_saved += saved;
        }
        self.trace_stage(&fl, "d2h", r.start, r.end, n);
        let total: u64 = fl.members.iter().map(|mb| mb.timing.bytes_d2h).sum();
        for mb in &mut fl.members {
            // A flight of one owns the whole reservation; members of a
            // larger one split it pro rata by bytes.
            mb.timing.d2h = match n {
                1 => r.duration(),
                _ => pro_rata(r.duration(), mb.timing.bytes_d2h, total),
            };
            mb.timing.completed = r.end;
            // Automatic deallocation of transient buffers (§4.2.1) and
            // unpinning of the cached inputs.
            let place = std::mem::take(&mut mb.place);
            eng.gmem
                .reclaim(&mut session.regions[gpu], gpu, place, mb.out_dev);
            self.executed_per_gpu[gpu] += 1;
            self.m_completed.inc();
            self.sample_metrics(eng.gmem, r.end);
        }
        self.free_stream(gpu, stream, r.end, q);
        // Only a flight of one is a per-call measurement the cost model can
        // learn from.
        if let [mb] = &fl.members[..] {
            self.observe_gpu_run(session, gpu, &mb.work, &mb.timing);
        }
        for mb in fl.members.drain(..) {
            self.input_lists.give(mb.work.inputs);
            let done = CompletedWork {
                name: mb.work.name,
                tag: mb.work.tag,
                gpu,
                stream,
                output: mb.output,
                emitted: mb.emitted,
                timing: mb.timing,
            };
            self.deliver(eng, job, done);
        }
        self.member_vecs.push(fl.members);
    }

    /// The watchdog fires `hang_timeout` after a launch; a flight still
    /// wedged in its kernels is recovered and every member retried.
    pub(crate) fn on_hang_check(
        &mut self,
        eng: &mut Engine<'_>,
        id: u64,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        if !self.flights.get(id).is_some_and(|fl| fl.hung) {
            // Completed normally, or already recovered by device loss.
            return;
        }
        let fl = self.flights.remove(id).expect("checked above");
        let session = eng.sessions.get_mut(&fl.job).expect("session open");
        eng.recovery.note(
            Charge::Job(session),
            LedgerEntry::HangsDetected,
            1,
            Some(Rec::at(t).on_gpu(fl.gpu)),
        );
        self.recover_flight(eng, fl, t, t, FailReason::RetriesExhausted, q);
    }

    /// Common tail of every in-place flight recovery: release the staging
    /// leases, free the stream at `stream_free_at`, and recover every
    /// member at `retry_at`.
    fn recover_flight(
        &mut self,
        eng: &mut Engine<'_>,
        mut fl: Flight,
        stream_free_at: SimTime,
        retry_at: SimTime,
        reason: FailReason,
        q: &mut EventQueue<Ev>,
    ) {
        eng.gmem.release_staging(std::mem::take(&mut fl.staging));
        self.free_stream(fl.gpu, fl.stream, stream_free_at, q);
        for mb in fl.members.drain(..) {
            self.recover_member(eng, fl.job, fl.gpu, mb, retry_at, reason.clone(), q);
        }
        self.member_vecs.push(fl.members);
    }

    /// Reclaim one member's buffers and pins and route its work through
    /// retry-or-fail at `at`.
    #[allow(clippy::too_many_arguments)]
    fn recover_member(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        gpu: usize,
        mb: Member,
        at: SimTime,
        reason: FailReason,
        q: &mut EventQueue<Ev>,
    ) {
        let session = eng.sessions.get_mut(&job).expect("session open");
        eng.gmem
            .reclaim(&mut session.regions[gpu], gpu, mb.place, mb.out_dev);
        let submitted = mb.timing.submitted;
        self.route_retry_or_fail(eng, job, mb.work, submitted, mb.retries, at, reason, q);
    }

    /// Re-submit every live flight on a device that just left the fabric,
    /// in creation (`seq`) order so the re-submit event sequence is
    /// deterministic (slot ids are reused; seqs are not). Device buffers
    /// died with the device — nothing to reclaim; host-side staging leases
    /// survive and go back to the pool. Loss is not the work's fault: each
    /// member re-enters scheduling immediately and keeps its retry budget.
    pub(crate) fn evacuate_flights(
        &mut self,
        eng: &mut Engine<'_>,
        gpu: usize,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        let mut ids: Vec<(u64, u64)> = self
            .flights
            .iter()
            .filter(|(_, fl)| fl.gpu == gpu)
            .map(|(id, fl)| (fl.seq, id))
            .collect();
        ids.sort_unstable();
        for (_, id) in ids {
            let mut fl = self.flights.remove(id).expect("id collected above");
            eng.gmem.release_staging(std::mem::take(&mut fl.staging));
            let session = eng.sessions.get_mut(&fl.job).expect("session open");
            for mb in fl.members.drain(..) {
                // The work re-enters with the retry count it had: a loss
                // is not the work's fault.
                let rec = Rec::at(t).on_gpu(gpu).with_detail(u64::from(mb.retries));
                let entry = LedgerEntry::Retries;
                eng.recovery.note(Charge::Job(session), entry, 1, Some(rec));
                let ev = Ev::submit(fl.job, mb.timing.submitted, mb.retries, mb.work);
                q.schedule(t, ev);
            }
            self.member_vecs.push(fl.members);
        }
    }
}
