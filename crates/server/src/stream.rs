//! Subscriber hub for live-flow SSE streams.
//!
//! The router publishes pre-framed generation-delta bytes here once per
//! stream tick; the hub fans them out to every subscriber of the touched
//! `dashboard/dataset` pair. Delivery is pull-based: the reactor
//! registers a notifier ([`StreamHub::set_notifier`]) that pokes its
//! waker pipe, then drains ready subscriptions with
//! [`Subscription::try_take`] on its polling thread.
//!
//! Backpressure is per subscriber and byte-bounded: a reader that cannot
//! keep up accumulates queued frames until [`MAX_QUEUED_BYTES`], at which
//! point the hub *evicts* the subscription — the stream is closed rather
//! than buffering without bound or stalling the publisher. Slow readers
//! lose their stream, never their server. The cap bounds backlog, not
//! frame size: one oversized frame into an empty queue is delivered, so
//! large initial snapshots never evict a subscriber that is keeping up.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-subscriber cap on queued-but-unwritten frame bytes. Crossing it
/// marks the subscription evicted and drops the queue.
pub const MAX_QUEUED_BYTES: usize = 256 * 1024;

/// Why a drained subscription has no more frames coming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscriptionEnd {
    /// Still live; more frames may arrive.
    Open,
    /// Closed deliberately (server shutdown or stream stop).
    Closed,
    /// Evicted for falling behind [`MAX_QUEUED_BYTES`].
    Evicted,
}

#[derive(Debug, Default)]
struct SubState {
    /// Pre-framed wire bytes awaiting the writer, FIFO.
    frames: Vec<Vec<u8>>,
    queued_bytes: usize,
    closed: bool,
    evicted: bool,
}

/// One subscriber's handle: a bounded frame queue.
#[derive(Debug)]
pub struct Subscription {
    /// `dashboard/dataset` key this subscription listens to.
    pub key: String,
    state: Mutex<SubState>,
}

impl Subscription {
    fn new(key: String) -> Self {
        Subscription {
            key,
            state: Mutex::new(SubState::default()),
        }
    }

    /// Queue one pre-framed chunk of wire bytes (the router uses this
    /// directly for a new subscriber's initial snapshot frame; ticks go
    /// through [`StreamHub::publish`]). Returns false when the
    /// subscription can no longer accept frames (closed or just evicted
    /// for exceeding the byte cap). The cap bounds *backlog*, not frame
    /// size: a frame offered to an empty queue is always accepted — the
    /// writer drains it immediately — so a snapshot larger than the cap
    /// (a full `_system` telemetry ring, a wide endpoint) starts the
    /// stream instead of evicting the brand-new subscriber.
    pub fn offer(&self, frame: &[u8]) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.closed || st.evicted {
            return false;
        }
        if !st.frames.is_empty() && st.queued_bytes + frame.len() > MAX_QUEUED_BYTES {
            // Slow reader: drop the whole queue and end the stream.
            st.evicted = true;
            st.frames.clear();
            st.queued_bytes = 0;
            return false;
        }
        st.queued_bytes += frame.len();
        st.frames.push(frame.to_vec());
        true
    }

    /// Drain queued frames without blocking.
    pub fn try_take(&self) -> (Vec<Vec<u8>>, SubscriptionEnd) {
        let mut st = self.state.lock().unwrap();
        let frames = std::mem::take(&mut st.frames);
        st.queued_bytes = 0;
        (frames, end_of(&st))
    }

    /// End the stream deliberately; the next drain sees
    /// [`SubscriptionEnd::Closed`].
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        st.frames.clear();
        st.queued_bytes = 0;
    }

    /// Bytes queued and not yet drained by the writer.
    pub fn queued_bytes(&self) -> usize {
        self.state.lock().unwrap().queued_bytes
    }
}

fn end_of(st: &SubState) -> SubscriptionEnd {
    if st.evicted {
        SubscriptionEnd::Evicted
    } else if st.closed {
        SubscriptionEnd::Closed
    } else {
        SubscriptionEnd::Open
    }
}

/// Result of publishing one frame to a dataset's subscribers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishReport {
    /// Subscribers the frame was queued for.
    pub delivered: usize,
    /// Subscribers evicted by this frame for being over the byte cap.
    pub evicted: usize,
}

/// Fan-out registry keyed by `dashboard/dataset`.
#[derive(Default)]
pub struct StreamHub {
    subs: Mutex<HashMap<String, Vec<Arc<Subscription>>>>,
    /// Called after any publish that queued at least one frame — the
    /// reactor installs its waker poke here.
    notifier: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for StreamHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHub")
            .field("subscribers", &self.subscriber_count())
            .finish()
    }
}

impl StreamHub {
    /// Empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the publish notifier (reactor waker). Replaces any prior.
    pub fn set_notifier(&self, f: Box<dyn Fn() + Send + Sync>) {
        *self.notifier.lock().unwrap() = Some(f);
    }

    /// Register a subscriber for `dashboard/dataset` frames.
    pub fn subscribe(&self, dashboard: &str, dataset: &str) -> Arc<Subscription> {
        // The id keeps Arc identity debuggable; delivery is key-based.
        self.next_id.fetch_add(1, Ordering::Relaxed);
        let key = format!("{dashboard}/{dataset}");
        let sub = Arc::new(Subscription::new(key.clone()));
        self.subs
            .lock()
            .unwrap()
            .entry(key)
            .or_default()
            .push(Arc::clone(&sub));
        sub
    }

    /// Drop a subscription from the registry (writer finished with it).
    pub fn unsubscribe(&self, sub: &Arc<Subscription>) {
        let mut subs = self.subs.lock().unwrap();
        if let Some(list) = subs.get_mut(&sub.key) {
            list.retain(|s| !Arc::ptr_eq(s, sub));
            if list.is_empty() {
                subs.remove(&sub.key);
            }
        }
    }

    /// Queue `frame` for every subscriber of `dashboard/dataset`,
    /// evicting any that would exceed their byte cap. Subscribers that
    /// were already closed/evicted are pruned from the registry.
    pub fn publish(&self, dashboard: &str, dataset: &str, frame: &[u8]) -> PublishReport {
        let key = format!("{dashboard}/{dataset}");
        let mut report = PublishReport::default();
        {
            let mut subs = self.subs.lock().unwrap();
            let Some(list) = subs.get_mut(&key) else {
                return report;
            };
            list.retain(|sub| {
                let was_live = {
                    let st = sub.state.lock().unwrap();
                    !st.closed && !st.evicted
                };
                if !was_live {
                    return false;
                }
                if sub.offer(frame) {
                    report.delivered += 1;
                    true
                } else {
                    // offer() only fails live subscriptions by evicting.
                    report.evicted += 1;
                    false
                }
            });
            if list.is_empty() {
                subs.remove(&key);
            }
        }
        if report.delivered > 0 {
            if let Some(f) = self.notifier.lock().unwrap().as_ref() {
                f();
            }
        }
        report
    }

    /// Close every subscription (server shutdown).
    pub fn close_all(&self) {
        let subs = std::mem::take(&mut *self.subs.lock().unwrap());
        for (_, list) in subs {
            for sub in list {
                sub.close();
            }
        }
    }

    /// Currently registered subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.subs.lock().unwrap().values().map(Vec::len).sum()
    }

    /// Whether anyone is subscribed to `dashboard/dataset`. Publishers
    /// with expensive frames (the telemetry scraper serialising its
    /// per-tick delta) check this first and skip the serialisation
    /// entirely when nobody is listening.
    pub fn has_subscribers(&self, dashboard: &str, dataset: &str) -> bool {
        let key = format!("{dashboard}/{dataset}");
        self.subs
            .lock()
            .unwrap()
            .get(&key)
            .is_some_and(|list| !list.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_fans_out_to_matching_subscribers_only() {
        let hub = StreamHub::new();
        let a = hub.subscribe("dash", "sales");
        let b = hub.subscribe("dash", "sales");
        let other = hub.subscribe("dash", "inventory");
        assert_eq!(hub.subscriber_count(), 3);

        let report = hub.publish("dash", "sales", b"frame-1");
        assert_eq!(
            report,
            PublishReport {
                delivered: 2,
                evicted: 0
            }
        );
        let (frames, end) = a.try_take();
        assert_eq!(frames, vec![b"frame-1".to_vec()]);
        assert_eq!(end, SubscriptionEnd::Open);
        let (frames, _) = b.try_take();
        assert_eq!(frames.len(), 1);
        let (frames, _) = other.try_take();
        assert!(frames.is_empty(), "different dataset");

        hub.unsubscribe(&a);
        hub.unsubscribe(&b);
        hub.unsubscribe(&other);
        assert_eq!(hub.subscriber_count(), 0);
    }

    #[test]
    fn slow_reader_grows_bounded_then_evicts() {
        let hub = StreamHub::new();
        let sub = hub.subscribe("d", "x");
        // A reader that never drains: queued bytes grow, stay bounded by
        // the cap, then the subscription is evicted and the queue drops.
        let frame = vec![b'z'; 64 * 1024];
        for i in 0..4 {
            let report = hub.publish("d", "x", &frame);
            assert_eq!(report.delivered, 1, "publish {i} under the cap");
            assert!(sub.queued_bytes() <= MAX_QUEUED_BYTES);
        }
        assert_eq!(sub.queued_bytes(), MAX_QUEUED_BYTES);
        // One more byte over the cap: evicted, queue cleared, pruned.
        let report = hub.publish("d", "x", b"overflow");
        assert_eq!(
            report,
            PublishReport {
                delivered: 0,
                evicted: 1
            }
        );
        assert_eq!(sub.queued_bytes(), 0);
        let (frames, end) = sub.try_take();
        assert!(frames.is_empty(), "evicted queues are dropped, not drained");
        assert_eq!(end, SubscriptionEnd::Evicted);
        assert_eq!(hub.subscriber_count(), 0, "evicted subs are pruned");
        // Publishing to a fully evicted key is a no-op.
        assert_eq!(hub.publish("d", "x", b"late"), PublishReport::default());
    }

    #[test]
    fn oversized_frame_into_empty_queue_is_delivered_not_evicted() {
        let hub = StreamHub::new();
        let sub = hub.subscribe("d", "x");
        // A snapshot bigger than the whole cap (a full telemetry ring, a
        // wide endpoint) must start the stream, not evict the brand-new
        // subscriber: the cap bounds backlog, not frame size.
        let snapshot = vec![b'z'; MAX_QUEUED_BYTES + 1];
        assert!(sub.offer(&snapshot), "empty queue accepts any frame size");
        let (frames, end) = sub.try_take();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].len(), MAX_QUEUED_BYTES + 1);
        assert_eq!(end, SubscriptionEnd::Open);
        // Drained, later ticks flow normally.
        assert!(sub.offer(b"tick"));
        // An oversized frame behind an undrained backlog still evicts.
        let report = hub.publish("d", "x", &snapshot);
        assert_eq!(
            report,
            PublishReport {
                delivered: 0,
                evicted: 1
            }
        );
    }

    #[test]
    fn notifier_fires_only_when_frames_were_queued() {
        let hub = StreamHub::new();
        let pokes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&pokes);
        hub.set_notifier(Box::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        hub.publish("d", "x", b"nobody-listening");
        assert_eq!(pokes.load(Ordering::SeqCst), 0);
        let sub = hub.subscribe("d", "x");
        hub.publish("d", "x", b"tick");
        assert_eq!(pokes.load(Ordering::SeqCst), 1);
        sub.close();
        hub.publish("d", "x", b"tock");
        assert_eq!(pokes.load(Ordering::SeqCst), 1, "closed sub queues nothing");
    }

    #[test]
    fn close_all_ends_every_stream() {
        let hub = StreamHub::new();
        let a = hub.subscribe("d", "x");
        let b = hub.subscribe("e", "y");
        hub.close_all();
        assert_eq!(a.try_take().1, SubscriptionEnd::Closed);
        assert_eq!(b.try_take().1, SubscriptionEnd::Closed);
        assert_eq!(hub.subscriber_count(), 0);
    }
}
