//! The wall-clock stack sampler: a background thread that periodically
//! snapshots every live span stack into folded form.
//!
//! Modeled on the `ute-obs` metrics sampler: one global slot, a named
//! thread parked between ticks, `stop()` joins the thread and hands the
//! accumulated [`ProfileData`] back. Starting twice is a no-op;
//! stopping when not running returns `None`. The sampler only *reads*
//! shared state (the live-stack registry, metric handles), so it never
//! perturbs pipeline ordering — the determinism guarantee
//! (byte-identical artifacts at any `--jobs`) holds with it running.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default sampling interval: 500 µs keeps even a 100 ms stencil run
/// at a few hundred samples while staying far below 1% overhead.
pub const DEFAULT_INTERVAL_US: u64 = 500;

/// Cap on distinct folded stacks; further new stacks are dropped and
/// counted in `profile/stacks_dropped` (existing stacks keep counting).
const FOLDED_CAPACITY: usize = 65536;

/// Everything the sampler accumulated between `start` and `stop`.
#[derive(Debug, Clone, Default)]
pub struct ProfileData {
    /// The interval the sampler was started with, µs.
    pub interval_us: u64,
    /// First/last tick wall-clock bounds, ns since the obs epoch.
    pub started_ns: u64,
    pub stopped_ns: u64,
    /// Sampler wakeups.
    pub ticks: u64,
    /// Ticks where no thread had any open span.
    pub idle_ticks: u64,
    /// Total leaf-frame attributions (≥ active ticks when several
    /// threads are running spans at once).
    pub leaf_samples: u64,
    /// Folded stack ("outer;inner;leaf") → sample count.
    pub folded: BTreeMap<String, u64>,
    /// Leaf-frame stage → sample count: the self-time ranking input.
    pub leaf_by_stage: BTreeMap<String, u64>,
}

impl ProfileData {
    /// Mean wall-clock time between ticks, ns (0 before two ticks).
    pub fn tick_ns(&self) -> u64 {
        if self.ticks == 0 {
            return 0;
        }
        self.stopped_ns.saturating_sub(self.started_ns) / self.ticks
    }
}

/// The folded-stack file: one `stack count` line per distinct stack,
/// sorted, exactly the format `inferno-flamegraph` / `flamegraph.pl`
/// consume.
pub fn folded_output(data: &ProfileData) -> String {
    let mut out = String::new();
    for (stack, n) in &data.folded {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&n.to_string());
        out.push('\n');
    }
    out
}

struct SamplerShared {
    stop: AtomicBool,
    data: Mutex<ProfileData>,
}

struct SamplerState {
    shared: Arc<SamplerShared>,
    handle: JoinHandle<()>,
}

fn global_state() -> &'static Mutex<Option<SamplerState>> {
    static STATE: OnceLock<Mutex<Option<SamplerState>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

/// Starts the background stack sampler. No-op if already running.
/// Callers normally also enable the span-side hooks with
/// `ute_obs::set_profiling(true)` — without them every sampled stack
/// is empty.
pub fn start(interval: Duration) {
    let mut state = global_state().lock();
    if state.is_some() {
        return;
    }
    let shared = Arc::new(SamplerShared {
        stop: AtomicBool::new(false),
        data: Mutex::new(ProfileData {
            interval_us: interval.as_micros() as u64,
            started_ns: ute_obs::span::now_ns(),
            ..ProfileData::default()
        }),
    });
    let worker = Arc::clone(&shared);
    let handle = std::thread::Builder::new()
        .name("ute-profile-sampler".into())
        .spawn(move || sampler_loop(&worker, interval))
        .expect("spawn profile sampler thread");
    *state = Some(SamplerState { shared, handle });
}

/// Whether the sampler is currently running.
pub fn running() -> bool {
    global_state().lock().is_some()
}

/// Stops the sampler, joins its thread, and returns the accumulated
/// profile. `None` when it was not running.
pub fn stop() -> Option<ProfileData> {
    let state = global_state().lock().take()?;
    state.shared.stop.store(true, Ordering::Relaxed);
    state.handle.thread().unpark();
    let _ = state.handle.join();
    let mut data = std::mem::take(&mut *state.shared.data.lock());
    data.stopped_ns = ute_obs::span::now_ns();
    Some(data)
}

fn sampler_loop(shared: &SamplerShared, interval: Duration) {
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::park_timeout(interval);
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        tick(shared);
    }
}

fn tick(shared: &SamplerShared) {
    let mut stacks_dropped = 0u64;
    {
        let mut d = shared.data.lock();
        d.ticks += 1;
        let mut any = false;
        let mut key = String::with_capacity(96);
        ute_obs::sample_stacks(|_tid, frames| {
            if frames.is_empty() {
                return;
            }
            any = true;
            key.clear();
            for (i, frame) in frames.iter().enumerate() {
                if i > 0 {
                    key.push(';');
                }
                key.push_str(frame.name());
            }
            let leaf = frames.last().expect("non-empty stack has a leaf");
            d.leaf_samples += 1;
            *d.leaf_by_stage.entry(leaf.stage.to_string()).or_insert(0) += 1;
            if let Some(n) = d.folded.get_mut(key.as_str()) {
                *n += 1;
            } else if d.folded.len() < FOLDED_CAPACITY {
                d.folded.insert(key.clone(), 1);
            } else {
                stacks_dropped += 1;
            }
        });
        if !any {
            d.idle_ticks += 1;
        }
    }
    ute_obs::counter("profile/samples").inc();
    if stacks_dropped > 0 {
        ute_obs::counter("profile/stacks_dropped").add(stacks_dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_obs::Span;

    /// The sampler slot and the profiling flag are process-global;
    /// serialize the tests that use them.
    fn test_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn samples_open_spans_into_folded_stacks() {
        let _guard = test_lock().lock();
        ute_obs::set_profiling(true);
        start(Duration::from_micros(200));
        assert!(running());
        start(Duration::from_micros(200)); // second start is a no-op
        {
            let outer = Span::enter("test-profile-sampler", "outer work");
            let _inner = Span::enter_under("test-profile-sampler", "inner work", outer.id());
            // Hold the spans open long enough for several ticks.
            let deadline = std::time::Instant::now() + Duration::from_millis(50);
            let mut acc = 0u64;
            while std::time::Instant::now() < deadline {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(acc);
        }
        let data = stop().expect("sampler was running");
        ute_obs::set_profiling(false);
        assert!(!running());
        assert!(stop().is_none(), "second stop must be a no-op");
        assert!(data.ticks > 0, "sampler never ticked");
        assert!(
            data.folded
                .keys()
                .any(|k| k.contains("outer work;inner work")),
            "nested spans did not fold: {:?}",
            data.folded.keys().collect::<Vec<_>>()
        );
        assert!(data.leaf_by_stage.contains_key("test-profile-sampler"));
        let folded = folded_output(&data);
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
            assert!(!stack.is_empty());
            assert!(count.parse::<u64>().is_ok(), "bad count in {line:?}");
        }
    }

    #[test]
    fn idle_ticks_are_counted_when_no_spans_open() {
        let _guard = test_lock().lock();
        // Profiling off: the registry stays empty, every tick is idle.
        start(Duration::from_micros(200));
        std::thread::sleep(Duration::from_millis(10));
        let data = stop().expect("sampler was running");
        assert!(data.ticks > 0);
        assert_eq!(
            data.idle_ticks, data.ticks,
            "with profiling off every tick must be idle"
        );
        assert_eq!(data.leaf_samples, 0);
        assert!(data.tick_ns() > 0);
    }
}
