//! One process-wide pool of parked helper threads for morsel jobs.
//!
//! A job is a morsel count and a `'static` closure called once per morsel
//! index. The caller posts it and then runs morsels itself, claiming each
//! from one atomic counter; any idle helper claims from the same counter.
//! When the counter runs out the caller waits only for the morsels a
//! helper already claimed, so a helper that wakes late costs nothing: the
//! caller has simply run those morsels too. The caller then drops the
//! closure itself, so no input it captured outlives the call (an append
//! grows a table in place only when nothing else holds it). When the one job slot is taken
//! (another request's job is running) or the pool has no helpers, a job
//! runs whole on its caller.
//!
//! [`Pool::global`] has `available_parallelism() − 1` helpers, started on
//! first use; on one CPU it has none. A panic in a morsel is caught where
//! it ran, and re-raised on the caller once every claimed morsel is done;
//! the helper that caught it goes on serving.

use crate::{Mutex, RwLock};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock, PoisonError};

type Morsel = dyn Fn(usize) + Send + Sync;

/// One posted job.
struct Job {
    morsels: usize,
    /// The next unclaimed morsel.
    next: AtomicUsize,
    /// Morsels finished, by anyone.
    done: AtomicUsize,
    /// Morsels a helper ran.
    helped: AtomicUsize,
    /// The closure, taken and dropped by the caller once every morsel is
    /// done, so nothing it captured outlives [`Pool::run`] — a helper may
    /// hold the job itself a moment longer.
    run: RwLock<Option<Box<Morsel>>>,
    /// The first panic a morsel raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Signalled when the last morsel finishes.
    finished: (std::sync::Mutex<()>, Condvar),
}

impl Job {
    /// Claim and run morsels until none is left.
    fn work(&self, helper: bool) {
        loop {
            // A claim publishes nothing: the morsel's inputs were made
            // before the job was posted under the slot's lock.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.morsels {
                return;
            }
            let ran = {
                let run = self.run.read();
                let run = run.as_ref().expect("taken only once every morsel is done");
                catch_unwind(AssertUnwindSafe(|| run(i)))
            };
            if let Err(payload) = ran {
                self.panic.lock().get_or_insert(payload);
            }
            if helper {
                self.helped.fetch_add(1, Ordering::Relaxed);
            }
            // Release: the morsel's writes (its output, in its slot) happen
            // before the caller's Acquire load in `wait` sees it done.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.morsels {
                let _guard = self.lock_finished();
                self.finished.1.notify_all();
            }
        }
    }

    fn lock_finished(&self) -> std::sync::MutexGuard<'_, ()> {
        self.finished
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until every morsel is done: only morsels already claimed can
    /// still be running once the caller's [`Job::work`] returned.
    fn wait(&self) {
        let mut guard = self.lock_finished();
        while self.done.load(Ordering::Acquire) < self.morsels {
            guard = self
                .finished
                .1
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The job slot the helpers watch.
#[derive(Default)]
struct Slot {
    job: Option<Arc<Job>>,
    /// Jobs posted so far: a helper takes each job at most once.
    posted: u64,
}

struct Shared {
    slot: std::sync::Mutex<Slot>,
    wake: Condvar,
    jobs: AtomicU64,
    morsels: AtomicU64,
    helped: AtomicU64,
    single: AtomicU64,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Counters of a [`Pool`] since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs of two or more morsels.
    pub jobs: u64,
    /// Morsels those jobs ran.
    pub morsels: u64,
    /// Of them, morsels a helper ran.
    pub helped: u64,
    /// Kernel calls that took their single pass instead of a job
    /// ([`Pool::note_single`]).
    pub single: u64,
}

/// What one [`Pool::run`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ran {
    /// Morsels run.
    pub morsels: usize,
    /// Of them, morsels a helper ran.
    pub helped: usize,
}

/// A pool of parked helper threads; see the module docs.
pub struct Pool {
    shared: Arc<Shared>,
    helpers: usize,
}

impl Pool {
    /// The process-wide pool: `available_parallelism() − 1` helpers,
    /// started on first use.
    pub fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            Pool::new(cpus - 1)
        })
    }

    /// A pool of `helpers` parked threads (none: every job runs on its
    /// caller). The threads are never joined: they live as long as the
    /// process, and a morsel's panic is caught before it can unwind one.
    pub fn new(helpers: usize) -> Pool {
        let shared = Arc::new(Shared {
            slot: std::sync::Mutex::new(Slot::default()),
            wake: Condvar::new(),
            jobs: AtomicU64::new(0),
            morsels: AtomicU64::new(0),
            helped: AtomicU64::new(0),
            single: AtomicU64::new(0),
        });
        for i in 0..helpers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("pool-helper-{i}"))
                .spawn(move || helper(&shared))
                .expect("spawn a pool helper");
        }
        Pool { shared, helpers }
    }

    /// How many helper threads it has.
    pub fn helpers(&self) -> usize {
        self.helpers
    }

    /// Run `run(0)` … `run(morsels − 1)`, each exactly once, on this thread
    /// and on any idle helper, and return once all have finished. A morsel's
    /// panic is re-raised here after the others finish.
    pub fn run(&self, morsels: usize, run: impl Fn(usize) + Send + Sync + 'static) -> Ran {
        if morsels == 0 {
            return Ran::default();
        }
        if morsels > 1 {
            self.shared.jobs.fetch_add(1, Ordering::Relaxed);
            self.shared
                .morsels
                .fetch_add(morsels as u64, Ordering::Relaxed);
        }
        if morsels == 1 || self.helpers == 0 {
            (0..morsels).for_each(run);
            return Ran { morsels, helped: 0 };
        }
        let job = Arc::new(Job {
            morsels,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            helped: AtomicUsize::new(0),
            run: RwLock::new(Some(Box::new(run))),
            panic: Mutex::new(None),
            finished: (std::sync::Mutex::new(()), Condvar::new()),
        });
        let posted = {
            let mut slot = self.shared.lock();
            // Another caller's job holds the slot: run this one whole here.
            let free = slot.job.is_none();
            if free {
                slot.job = Some(Arc::clone(&job));
                slot.posted += 1;
            }
            free
        };
        if posted {
            // Wake only as many helpers as there are morsels beyond the
            // caller's first; a helper busy elsewhere finds the job when
            // it next looks at the slot.
            for _ in 1..morsels.min(self.helpers + 1) {
                self.shared.wake.notify_one();
            }
        }
        job.work(false);
        job.wait();
        drop(job.run.write().take());
        if posted {
            let mut slot = self.shared.lock();
            if slot.job.as_ref().is_some_and(|j| Arc::ptr_eq(j, &job)) {
                slot.job = None;
            }
        }
        let helped = job.helped.load(Ordering::Relaxed);
        self.shared
            .helped
            .fetch_add(helped as u64, Ordering::Relaxed);
        if let Some(payload) = job.panic.lock().take() {
            resume_unwind(payload);
        }
        Ran { morsels, helped }
    }

    /// [`Pool::run`] of `work(i, &mut outs[i])` for every morsel `i`,
    /// returning `outs` in morsel order. The outputs are made by the
    /// caller, so buffers it sizes up front stay in its allocator arena.
    pub fn map_into<T: Send + 'static>(
        &self,
        outs: Vec<T>,
        work: impl Fn(usize, &mut T) + Send + Sync + 'static,
    ) -> (Vec<T>, Ran) {
        let slots: Arc<Vec<Mutex<Option<T>>>> =
            Arc::new(outs.into_iter().map(|out| Mutex::new(Some(out))).collect());
        let held = Arc::clone(&slots);
        let ran = self.run(slots.len(), move |i| {
            // Worked on out of its slot: the slots share cache lines, and a
            // buffer's length written there on every push would bounce
            // them between the threads.
            let mut out = held[i].lock().take().expect("each morsel runs once");
            work(i, &mut out);
            *held[i].lock() = Some(out);
        });
        let outs = slots
            .iter()
            .map(|slot| slot.lock().take().expect("every morsel ran"))
            .collect();
        (outs, ran)
    }

    /// [`Pool::map_into`] for outputs each morsel makes itself.
    pub fn map<T: Send + 'static>(
        &self,
        morsels: usize,
        work: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> (Vec<T>, Ran) {
        let outs = (0..morsels).map(|_| None).collect();
        let (outs, ran) = self.map_into(outs, move |i, out| *out = Some(work(i)));
        let outs = outs
            .into_iter()
            .map(|out| out.expect("every morsel ran"))
            .collect();
        (outs, ran)
    }

    /// Count a kernel call that ran its single pass instead of a job.
    pub fn note_single(&self) {
        self.shared.single.fetch_add(1, Ordering::Relaxed);
    }

    /// Counters since the pool started.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            morsels: self.shared.morsels.load(Ordering::Relaxed),
            helped: self.shared.helped.load(Ordering::Relaxed),
            single: self.shared.single.load(Ordering::Relaxed),
        }
    }
}

/// A helper's life: park until a job it has not seen is posted, work on
/// it, repeat.
fn helper(shared: &Shared) {
    let mut seen = 0;
    loop {
        let job = {
            let mut slot = shared.lock();
            loop {
                match &slot.job {
                    Some(job) if slot.posted != seen => {
                        seen = slot.posted;
                        break Arc::clone(job);
                    }
                    _ => {
                        slot = shared
                            .wake
                            .wait(slot)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                }
            }
        };
        job.work(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::{current, ThreadId};

    /// A job of `morsels` morsels that all wait at one barrier, so every
    /// one runs at once: with one helper, `morsels` = 2 puts one morsel on
    /// it. A morsel on a helper panics when `panic_on_helper`.
    fn side_by_side(pool: &Pool, panic_on_helper: bool) -> Ran {
        let me = current().id();
        let together = Arc::new(Barrier::new(2));
        pool.run(2, move |_| {
            together.wait();
            if panic_on_helper && current().id() != me {
                panic!("helper morsel");
            }
        })
    }

    #[test]
    fn a_pool_with_no_helpers_runs_everything_on_the_caller() {
        let pool = Pool::new(0);
        let seen: Arc<Vec<Mutex<Option<ThreadId>>>> =
            Arc::new((0..8).map(|_| Mutex::new(None)).collect());
        let out = Arc::clone(&seen);
        let ran = pool.run(8, move |i| *out[i].lock() = Some(current().id()));
        assert_eq!(
            ran,
            Ran {
                morsels: 8,
                helped: 0
            }
        );
        assert!(seen.iter().all(|s| *s.lock() == Some(current().id())));
        assert_eq!(pool.stats().jobs, 1);
        assert_eq!(pool.stats().morsels, 8);
    }

    #[test]
    fn a_held_helper_leaves_its_morsels_to_the_caller() {
        let pool = Pool::new(1);
        let me = current().id();
        let claimed = Arc::new(Barrier::new(2));
        let held = Arc::new(Barrier::new(2));
        let by_caller = Arc::new(AtomicUsize::new(0));
        let ran = pool.run(16, move |_| {
            if current().id() != me {
                // Claim one morsel, then stay held until the caller has
                // run all the others.
                claimed.wait();
                held.wait();
                return;
            }
            let n = by_caller.fetch_add(1, Ordering::SeqCst) + 1;
            if n == 1 {
                claimed.wait();
            }
            if n == 15 {
                held.wait();
            }
        });
        assert_eq!(
            ran,
            Ran {
                morsels: 16,
                helped: 1
            }
        );
    }

    #[test]
    fn nothing_a_job_captured_outlives_the_call() {
        let pool = Pool::new(1);
        let input = Arc::new(vec![1u8; 64]);
        for _ in 0..100 {
            let held = Arc::clone(&input);
            let together = Arc::new(Barrier::new(2));
            let ran = pool.run(2, move |_| {
                together.wait();
                assert_eq!(held.len(), 64);
            });
            assert_eq!(ran.helped, 1);
            assert_eq!(Arc::strong_count(&input), 1, "the helper's copy is gone");
        }
    }

    #[test]
    fn a_panicking_morsel_is_reraised_and_the_helper_serves_on() {
        let pool = Pool::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| side_by_side(&pool, true)));
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper morsel"));
        assert_eq!(
            side_by_side(&pool, false),
            Ran {
                morsels: 2,
                helped: 1
            }
        );
        assert_eq!(pool.stats().helped, 2);
    }
}
