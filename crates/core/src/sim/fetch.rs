//! Fetch: the per-thread µop streams, branch direction prediction, and
//! the round-robin SMT fetch stage that fills the fetch buffers.

use super::{tagged_pc, Engine};
use crate::alloc::ClusterChoice;
use wsrs_frontend::DirectionPredictor;
use wsrs_isa::DynInst;

/// A µop annotated with the front end's stream-order decisions. Whether a
/// conditional branch mispredicts is a pure function of the trace prefix
/// (the predictor sees every conditional branch in trace order and timing
/// never feeds back into it), which is what lets the batched engine
/// compute the annotation once per trace and share it across lanes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AnnUop {
    pub d: DynInst,
    pub cond_branch: bool,
    pub mispredicted: bool,
}

/// Per-thread source of annotated µops. The direction predictor lives
/// behind this trait, not in the engine.
pub(crate) trait FetchStream {
    /// The next µop of hardware thread `tid`, or `None` when its trace is
    /// exhausted.
    fn next(&mut self, tid: usize) -> Option<AnnUop>;
}

/// The scalar fetch stream: one iterator per hardware thread and a private
/// predictor, annotating µops as they are pulled.
pub(crate) struct PredictedIters<T> {
    traces: Vec<T>,
    /// `None` models the perfect-prediction oracle.
    predictor: Option<Box<dyn DirectionPredictor>>,
}

impl<T: Iterator<Item = DynInst>> PredictedIters<T> {
    pub(crate) fn new(traces: Vec<T>, predictor: Option<Box<dyn DirectionPredictor>>) -> Self {
        PredictedIters { traces, predictor }
    }
}

/// A thread's fetch state around a mispredicted branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Redirect {
    /// Fetch is flowing.
    None,
    /// A mispredicted branch was fetched at the given cycle; waiting for
    /// it to resolve. Fetch stops behind it, so a thread has at most one.
    WaitingResolve(u64),
    /// Resolved; fetch resumes at the given cycle.
    WaitingCycle(u64),
}

/// A fetched µop waiting in its thread's fetch buffer.
#[derive(Clone, Copy, Debug)]
pub(super) struct Fetched {
    pub(super) d: DynInst,
    pub(super) fetch_cycle: u64,
    pub(super) mispredicted: bool,
    /// Cluster choice made on the first dispatch attempt; sticky across
    /// retries (hardware fixes the allocation before rename, §2.2).
    pub(super) choice: Option<ClusterChoice>,
}

/// Runs the direction predictor over one µop, returning whether it
/// mispredicted (shared by the scalar stream and the batch annotator).
pub(crate) fn predict_uop(
    predictor: &mut Option<Box<dyn DirectionPredictor>>,
    tid: usize,
    d: &DynInst,
) -> bool {
    let Some(p) = predictor.as_mut() else {
        return false;
    };
    let pc = tagged_pc(tid, d.pc);
    let pred = p.predict(pc);
    p.update(pc, d.taken);
    pred != d.taken
}

impl<T: Iterator<Item = DynInst>> FetchStream for PredictedIters<T> {
    fn next(&mut self, tid: usize) -> Option<AnnUop> {
        let d = self.traces[tid].next()?;
        let cond_branch = d.is_cond_branch();
        let mispredicted = cond_branch && predict_uop(&mut self.predictor, tid, &d);
        Some(AnnUop {
            d,
            cond_branch,
            mispredicted,
        })
    }
}

impl Engine<'_> {
    /// Fetches up to `fetch_width` µops from **one** thread this cycle,
    /// rotating round-robin and skipping threads that are redirect-blocked,
    /// buffer-full or exhausted (the classic RR SMT fetch policy).
    pub(super) fn fetch<S: FetchStream>(&mut self, stream: &mut S) {
        let threads = self.cfg.threads;
        for offset in 0..threads {
            let tid = (self.cycle as usize + offset) % threads;
            if self.trace_done[tid] {
                continue;
            }
            match self.redirects[tid] {
                Redirect::WaitingResolve(_) => continue,
                Redirect::WaitingCycle(c) => {
                    if self.cycle < c {
                        continue;
                    }
                    self.redirects[tid] = Redirect::None;
                }
                Redirect::None => {}
            }
            if self.fetch_bufs[tid].len() >= self.fetch_buf_cap {
                continue;
            }
            self.fetch_thread(stream, tid);
            return; // one thread per cycle
        }
    }

    fn fetch_thread<S: FetchStream>(&mut self, stream: &mut S, tid: usize) {
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_bufs[tid].len() >= self.fetch_buf_cap {
                return;
            }
            let Some(a) = stream.next(tid) else {
                self.trace_done[tid] = true;
                return;
            };
            // Only conditional branches mispredict.
            self.count.branches += u64::from(a.cond_branch);
            self.count.mispredicts += u64::from(a.mispredicted);
            self.fetch_bufs[tid].push_back(Fetched {
                d: a.d,
                fetch_cycle: self.cycle,
                mispredicted: a.mispredicted,
                choice: None,
            });
            if a.mispredicted {
                // Fetch stalls until the branch resolves; the wrong path is
                // never simulated.
                self.redirects[tid] = Redirect::WaitingResolve(self.cycle);
                return;
            }
        }
    }
}
