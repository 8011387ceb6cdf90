//! History memory: an author cycle — save a flow variant, run it, page its
//! three endpoints — must leave next to nothing behind once the platform's
//! bounded structures (event ring, trace ring, caches, flow memo) are
//! warm. This binary owns the global allocator, so it counts every byte
//! the process holds live.

#[path = "common/author.rs"]
mod author;

use shareinsights::core::Platform;
use shareinsights::server::{Method, Request, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

/// `System`, counting the bytes it has handed out and not taken back.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        q
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tests of this binary run one at a time: another test's
/// allocations would land in the count.
static ALONE: Mutex<()> = Mutex::new(());

const DASHBOARD: &str = "b";

/// A server holding the retail sources, as the benchmark's author has it.
fn author_server() -> Server {
    let server = Server::new(Platform::new());
    let (sales, products) = author::sources(11, 2_000);
    server.platform().upload_data(DASHBOARD, "sales.csv", sales);
    server
        .platform()
        .upload_data(DASHBOARD, "products.csv", products);
    server
}

/// Save `flow`, run it and page its endpoints, all answered 200.
fn cycle(server: &Server, flow: &str) {
    let path = format!("/dashboards/{DASHBOARD}/flow");
    let mut requests = vec![
        Request::new(Method::Put, &path).with_body(flow),
        Request::new(Method::Post, &format!("/dashboards/{DASHBOARD}/run")),
    ];
    for endpoint in author::ENDPOINTS {
        requests.push(Request::get(&format!(
            "/{DASHBOARD}/ds/{endpoint}?limit=50"
        )));
    }
    for request in &requests {
        let response = server.handle(request);
        assert!(response.is_ok(), "{}: {}", request.path, response.body);
    }
}

#[test]
fn an_author_cycle_retains_at_most_384_bytes() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let server = author_server();
    let variants = [author::flow(3), author::flow(4)];
    // Fill the bounded structures: 128 events, 256 traces, the memo's ten
    // flow outputs, the page cache.
    for i in 0..200 {
        cycle(&server, &variants[i % 2]);
    }
    const CYCLES: isize = 500;
    let memo = server.platform().flow_memo();
    let (warm, warm_pipelines) = (memo.stats(), memo.pipeline_stats());
    let before = LIVE.load(Ordering::SeqCst);
    for i in 0..CYCLES as usize {
        cycle(&server, &variants[i % 2]);
    }
    let retained = (LIVE.load(Ordering::SeqCst) - before) / CYCLES;
    assert!(
        retained <= 384,
        "{retained} bytes retained per author cycle (bound 384)"
    );
    // Past the first two cycles every flow of every run is a memo hit.
    let hot = memo.stats();
    assert_eq!(hot.hits - warm.hits, 5 * CYCLES as u64, "{hot:?}");
    assert_eq!((hot.misses, hot.evictions), (warm.misses, 0), "{hot:?}");
    // And every save and every run finds its text parsed and compiled.
    let pipelines = memo.pipeline_stats();
    assert_eq!(
        (pipelines.hits - warm_pipelines.hits, pipelines.misses),
        (2 * CYCLES as u64, warm_pipelines.misses),
        "{pipelines:?}"
    );
}

#[test]
fn twenty_variants_keep_the_memo_inside_its_bound() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let server = author_server();
    // Twenty distinct filters: five new flow outputs each, more than the
    // memo holds.
    for round in 0..2 {
        for min_units in 0..20 {
            cycle(&server, &author::flow(min_units));
        }
        let memo = server.platform().flow_memo();
        let stats = memo.stats();
        assert!(stats.bytes <= memo.byte_bound(), "round {round}: {stats:?}");
        assert!(stats.evictions > 0, "round {round}: {stats:?}");
    }
    // The newest variant is still held: re-running it executes nothing.
    let before = server.platform().flow_memo().stats();
    cycle(&server, &author::flow(19));
    let after = server.platform().flow_memo().stats();
    assert_eq!((after.hits - before.hits, after.misses), (5, before.misses));
}
