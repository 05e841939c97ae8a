//! Spin up a real 4-server TCP cluster in one process, exercise it with
//! the client library, and crash a server mid-flight.
//!
//! ```sh
//! cargo run --example live_cluster
//! ```
//!
//! (The `pls-server` / `pls-client` binaries run the same code as
//! separate processes; see their `--help`.)

use partial_lookup::cluster::{Client, ClientConfig, Server, ServerConfig};
use partial_lookup::StrategySpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4;
    let spec = StrategySpec::round_robin(2);

    // Bind all listeners first so every server knows its peers.
    let mut listeners = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..n {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        addrs.push(listener.local_addr()?);
        listeners.push(listener);
    }
    let mut handles = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let cfg = ServerConfig::new(i, addrs.clone(), spec, 2003);
        let (server, addr) = Server::with_listener(cfg, listener)?;
        println!("server {i} on {addr}");
        handles.push(server.spawn());
    }

    let mut client = Client::connect(ClientConfig::new(addrs, spec, 7));

    // A song with eight serving peers, two directory copies each.
    let peers: Vec<Vec<u8>> = (0..8).map(|i| format!("peer{i}:6699").into_bytes()).collect();
    client.place(b"song/stairway", peers)?;
    println!("\nplaced 8 peers under song/stairway");

    let hits = client.partial_lookup(b"song/stairway", 3)?;
    println!(
        "lookup t=3 -> {:?}",
        hits.iter().map(|e| String::from_utf8_lossy(e)).collect::<Vec<_>>()
    );

    // Live updates.
    client.add(b"song/stairway", b"peer8:6699".to_vec())?;
    client.delete(b"song/stairway", b"peer0:6699".to_vec())?;
    println!("added peer8, deleted peer0 (round-robin migration ran over TCP)");

    for i in 0..n {
        let (keys, entries) = client.status_of(i)?;
        println!("  server {i}: {keys} key(s), {entries} entries");
    }

    // Crash a server; lookups keep working.
    handles[2].kill();
    println!("\ncrashed server 2");
    let hits = client.partial_lookup(b"song/stairway", 3)?;
    println!(
        "lookup t=3 still answers -> {:?}",
        hits.iter().map(|e| String::from_utf8_lossy(e)).collect::<Vec<_>>()
    );

    drop(handles); // kills the remaining servers
    Ok(())
}
