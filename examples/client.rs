//! Drive a served database over TCP: insert a catalog, run plain and
//! batched searches, execute VQL, read server counters, and ask the
//! server to shut down gracefully.
//!
//! Start the server first (`cargo run --example serve`), then run this
//! with: `cargo run --example client` (pass the server address as the
//! first argument if it isn't 127.0.0.1:7878).

use vdb::VqlOutput;
use vdb_core::SearchParams;
use vdb_server::Client;

fn main() -> vdb_core::Result<()> {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    // Connect retries with backoff, so a just-starting server is fine.
    let client = Client::connect(addr.as_str())?;
    println!("connected to {}", client.addr());

    // DML over the wire: the same catalog the quickstart builds locally.
    let catalog: &[(u64, [f32; 4], &str, i64)] = &[
        (1, [0.9, 0.1, 0.0, 0.2], "acme", 25),
        (2, [0.8, 0.2, 0.1, 0.1], "acme", 120),
        (3, [0.1, 0.9, 0.8, 0.0], "zenith", 40),
        (4, [0.2, 0.8, 0.9, 0.1], "zenith", 35),
        (5, [0.85, 0.15, 0.05, 0.15], "nova", 22),
        (6, [0.0, 0.2, 0.9, 0.9], "nova", 300),
    ];
    for (key, vector, brand, price) in catalog {
        client.insert(
            "products",
            *key,
            vector,
            &[("brand", (*brand).into()), ("price", (*price).into())],
        )?;
    }
    println!("inserted {} products", catalog.len());

    // Plain k-NN over the wire.
    let query = [0.88, 0.12, 0.02, 0.18];
    let hits = client.search("products", &query, 3, &SearchParams::default())?;
    println!("\ntop-3 nearest:");
    for h in &hits {
        println!("  product {}  (distance {:.4})", h.key, h.dist);
    }

    // Client-side batching: several queries in one round trip share one
    // warm search context on the server.
    let batch: &[&[f32]] = &[&[0.9, 0.1, 0.0, 0.2], &[0.1, 0.9, 0.8, 0.0]];
    let lists = client.search_batch("products", batch, 2, &SearchParams::default())?;
    println!("\nbatched nearest:");
    for (i, hits) in lists.iter().enumerate() {
        println!(
            "  query {i}: {:?}",
            hits.iter().map(|h| h.key).collect::<Vec<_>>()
        );
    }

    // VQL executes server-side; hybrid predicates work over the wire.
    let out = client.vql("SEARCH products K 3 NEAR [0.88, 0.12, 0.02, 0.18] WHERE price < 100")?;
    if let VqlOutput::Hits(hits) = out {
        println!("\nVQL nearest under $100:");
        for h in &hits {
            println!("  product {}  (distance {:.4})", h.key, h.dist);
        }
    }
    if let VqlOutput::Count(n) = client.vql("COUNT products")? {
        println!("live products: {n}");
    }

    // The metrics plane, then a graceful goodbye: the server drains
    // in-flight requests before it stops.
    let stats = client.server_stats()?;
    println!(
        "\nserver counters: {} served, {} busy ({} rate-limited), {} connections ({} open, {} reaped)",
        stats.served,
        stats.busy,
        stats.rate_limited,
        stats.connections,
        stats.open_connections,
        stats.reaped,
    );
    println!(
        "latency p50 {} us, p99 {} us at {} qps (lanes: {} interactive / {} bulk queued)",
        stats.p50_us, stats.p99_us, stats.qps, stats.interactive_depth, stats.bulk_depth,
    );
    client.shutdown_server()?;
    println!("asked the server to shut down");
    Ok(())
}
