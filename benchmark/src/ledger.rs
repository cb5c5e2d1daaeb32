//! The traced run. The benchmark itself plays master, slaves and
//! collector on ONE thread, epoch by epoch and back to back (no
//! pacing), calling one public function per stage and wrapping each
//! call in a span. The stage self times add up to the whole job's
//! single-threaded cost, so every layer's share is measured on the same
//! tape the paced cluster run uses — and the result must equal the
//! oracle's, like every other run.

use crate::sut::{Job, Pipeline, Work, DIST_EPOCH_US};
use crate::trace::Tracer;
use std::time::Instant;

pub struct Ledger {
    pub outputs_total: u64,
    pub checksum: u64,
    pub tuples_in: u64,
    /// Wall time of the whole epoch loop, measured the same way with
    /// spans on and off.
    pub loop_ns: u64,
    pub epochs: u64,
    pub batch_frames: u64,
    pub output_frames: u64,
    pub work: Work,
    pub window_tuples: u64,
    /// Window tuples of the partition the state stages moved.
    pub state_tuples: u64,
    pub tracer: Tracer,
}

/// Plays `job`'s tape through every stage once.
pub fn run(job: &Job, spans_on: bool) -> std::io::Result<Ledger> {
    let mut p = Pipeline::new(job)?;
    let mut tr = Tracer::new(spans_on);
    let (mut batch_frames, mut output_frames) = (0u64, 0u64);
    let mut epoch = 0u64;
    let started = Instant::now();
    loop {
        // The leader loop ingests what is due at each slot and, at the
        // horizon, flushes the rest of the tape.
        let slot_at = (epoch * DIST_EPOCH_US).min(job.run_us);
        tr.enter("epoch", epoch);
        tr.call("gen.pull", || p.pull(slot_at));
        tr.call("master.route", || p.route());
        let slaves = tr.call("master.drain_slot", || p.drain_slot());
        for (i, slave) in slaves.into_iter().enumerate() {
            tr.call("msg.batch_encode", || p.encode_batch(i));
            tr.call("wire.batch", || p.wire_down());
            tr.call("msg.batch_decode", || p.decode_batch());
            tr.call("slave.receive", || p.receive(slave));
            batch_frames += 1;
            if tr.call("slave.drain", || p.drain(slave)) > 0 {
                tr.call("msg.outputs_encode", || p.encode_outputs());
                tr.call("wire.outputs", || p.wire_up());
                tr.call("msg.outputs_decode", || p.decode_outputs());
                tr.call("collector.fold", || p.fold(slot_at));
                output_frames += 1;
            }
        }
        tr.exit();
        epoch += 1;
        if slot_at == job.run_us {
            break;
        }
    }
    let loop_ns = started.elapsed().as_nanos() as u64;
    let (work, window_tuples) = (p.work(), p.window_tuples());
    // State stages, outside the job's own cost: none of the workloads
    // moves state, so these are a baseline for one that will.
    tr.enter("state", epoch);
    tr.call("state.snapshot", || p.snapshot());
    let state_tuples = tr.call("state.move", || p.move_group());
    tr.exit();
    Ok(Ledger {
        outputs_total: p.outputs_total,
        checksum: p.checksum,
        tuples_in: p.tuples_in,
        loop_ns,
        epochs: epoch,
        batch_frames,
        output_frames,
        work,
        window_tuples,
        state_tuples,
        tracer: tr,
    })
}
