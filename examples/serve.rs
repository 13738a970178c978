//! Serve a database over TCP: bind a loopback port, accept concurrent
//! clients speaking the binary wire protocol, and shut down gracefully
//! when a client sends the wire `Shutdown` request.
//!
//! Run with: `cargo run --example serve` (defaults to 127.0.0.1:7878;
//! pass another address as the first argument), then drive it from a
//! second terminal with `cargo run --example client`.

use vdb::{CollectionSchema, IndexSpec, SystemProfile, Vdbms};
use vdb_core::{AttrType, Metric};
use vdb_server::{serve, ServerConfig};

fn main() -> vdb_core::Result<()> {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());

    // The served database: one product collection ready for inserts.
    let mut db = Vdbms::new(SystemProfile::MostlyMixed);
    db.create_collection(
        CollectionSchema::new("products", 4, Metric::Euclidean)
            .column("brand", AttrType::Str)
            .column("price", AttrType::Int),
        IndexSpec::parse("hnsw")?,
    )?;

    // A readiness-polling event loop holds every connection (thousands
    // of mostly-idle sockets cost one poll set, not one thread each) and
    // feeds four executor threads behind a bounded two-lane queue:
    // interactive searches are drained before bulk mutations, the bulk
    // lane sheds BUSY first when it fills, and past 64 queued requests
    // new arrivals get an immediate BUSY instead of unbounded queueing.
    // Concurrent single-query searches coalesce into batched calls
    // automatically. Collections listed in `rate_limits` are throttled
    // by per-collection token buckets.
    let cfg = ServerConfig::default();
    let handle = serve(db, addr.as_str(), cfg)?;
    println!("serving on {}", handle.addr());
    println!("drive me with: cargo run --example client -- {addr}");

    // Block until a client asks for shutdown, then drain in-flight
    // requests and recover the database.
    handle.wait_for_wire_shutdown();
    println!("shutdown requested; draining in-flight requests");
    let db = handle.shutdown();
    let stats = db.collection("products")?.stats();
    println!(
        "stopped cleanly: {} live products, index `{}`",
        stats.live, stats.index_name
    );
    Ok(())
}
