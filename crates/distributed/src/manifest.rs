//! Versioned cluster manifest: the shard → node assignment of a
//! replicated deployment.
//!
//! The manifest replaces static shard lists (§2.4 distributed
//! architectures: Milvus-style coordination state). Every node and every
//! client holds a copy; a monotonically increasing `version` decides
//! staleness — a peer adopts a received manifest only if its version is
//! strictly newer than the copy it holds, so re-deliveries and crossed
//! publications are harmless. Failover is a manifest edit: [`promote`]
//! swings a shard's primary to one of its replicas and bumps the version,
//! and publishing the new manifest re-routes clients.
//!
//! Keys route to shards by `key % n_shards` ([`ClusterManifest::shard_of`]);
//! the assignment maps each shard to a primary address (accepts writes,
//! ships the WAL) and replica addresses (serve reads, apply shipped
//! records, stand by for promotion).
//!
//! The manifest is served over the wire (see `vdb-server`'s
//! `ManifestGet`/`ManifestPut` opcodes) so a node can join a cluster
//! knowing only one seed address; it is held in memory, not persisted.

use vdb_core::codec::{self, Reader};
use vdb_core::crc32;
use vdb_core::error::{Error, Result};

/// Magic prefix of an encoded manifest ("VDBM" + format version 1).
const MAGIC: &[u8; 5] = b"VDBM1";

/// One shard's placement: who takes its writes, who replicates them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRoute {
    /// Address (`host:port`) of the node accepting this shard's writes.
    pub primary: String,
    /// Addresses of the nodes replicating this shard, in promotion order.
    pub replicas: Vec<String>,
}

/// The versioned shard → node assignment for one replicated collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterManifest {
    /// Monotonically increasing assignment version; higher wins.
    pub version: u64,
    /// The collection this manifest routes.
    pub collection: String,
    /// Placement of shard `i` at `shards[i]`.
    pub shards: Vec<ShardRoute>,
}

impl ClusterManifest {
    /// A version-1 manifest assigning each shard a primary (and no
    /// replicas yet) round-robin over `nodes`.
    pub fn new(collection: &str, n_shards: usize, nodes: &[String]) -> Result<Self> {
        if n_shards == 0 {
            return Err(Error::InvalidParameter("manifest needs >= 1 shard".into()));
        }
        if nodes.is_empty() {
            return Err(Error::InvalidParameter("manifest needs >= 1 node".into()));
        }
        let shards = (0..n_shards)
            .map(|s| ShardRoute {
                primary: nodes[s % nodes.len()].clone(),
                replicas: Vec::new(),
            })
            .collect();
        Ok(ClusterManifest {
            version: 1,
            collection: collection.to_string(),
            shards,
        })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key routes to (`key % n_shards`).
    pub fn shard_of(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// Address of the primary for `key`'s shard.
    pub fn primary_of(&self, key: u64) -> &str {
        &self.shards[self.shard_of(key)].primary
    }

    /// Fail shard `shard` over to its first replica: the replica becomes
    /// primary, the old primary is dropped from the route (it is presumed
    /// dead; a recovered node re-joins by bootstrapping as a replica),
    /// and the version is bumped. Returns the promoted address.
    pub fn promote(&mut self, shard: usize) -> Result<String> {
        let route = self
            .shards
            .get_mut(shard)
            .ok_or_else(|| Error::InvalidParameter(format!("no shard {shard}")))?;
        if route.replicas.is_empty() {
            return Err(Error::Unsupported(format!(
                "shard {shard} has no replica to promote"
            )));
        }
        let promoted = route.replicas.remove(0);
        route.primary = promoted.clone();
        self.version += 1;
        Ok(promoted)
    }

    /// Adopt `other` if it is strictly newer for the same collection.
    /// Returns whether the local copy changed. Equal or older versions
    /// are ignored (idempotent re-publication).
    pub fn adopt(&mut self, other: &ClusterManifest) -> Result<bool> {
        if other.collection != self.collection {
            return Err(Error::InvalidParameter(format!(
                "manifest is for collection `{}`, not `{}`",
                other.collection, self.collection
            )));
        }
        if other.version <= self.version {
            return Ok(false);
        }
        *self = other.clone();
        Ok(true)
    }

    /// Serialize to bytes (magic, version, collection, routes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        codec::put_u64(&mut out, self.version);
        codec::put_str(&mut out, &self.collection);
        codec::put_u32(&mut out, self.shards.len() as u32);
        for route in &self.shards {
            codec::put_str(&mut out, &route.primary);
            codec::put_u32(&mut out, route.replicas.len() as u32);
            for r in &route.replicas {
                codec::put_str(&mut out, r);
            }
        }
        let crc = crc32(&out[MAGIC.len()..]);
        codec::put_u32(&mut out, crc);
        out
    }

    /// Parse bytes produced by [`ClusterManifest::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(Error::Corrupt("manifest has bad magic".into()));
        }
        let body = &bytes[MAGIC.len()..bytes.len() - 4];
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        if crc32(body) != crc {
            return Err(Error::Corrupt("manifest checksum mismatch".into()));
        }
        let mut r = Reader::new(body);
        let version = r.u64()?;
        let collection = r.str()?;
        // A route is a primary's length prefix and a replica count.
        let n = r.u32_count(8)?;
        if n == 0 {
            return Err(Error::Corrupt("manifest has no shards".into()));
        }
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let primary = r.str()?;
            let nr = r.u32_count(4)?;
            let mut replicas = Vec::with_capacity(nr);
            for _ in 0..nr {
                replicas.push(r.str()?);
            }
            shards.push(ShardRoute { primary, replicas });
        }
        r.finish()?;
        Ok(ClusterManifest {
            version,
            collection,
            shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterManifest {
        let mut m =
            ClusterManifest::new("docs", 4, &["a:1".to_string(), "b:2".to_string()]).unwrap();
        for route in &mut m.shards {
            route.replicas.push("c:3".to_string());
        }
        m
    }

    #[test]
    fn routing_is_mod_n() {
        let m = sample();
        assert_eq!(m.shard_of(0), 0);
        assert_eq!(m.shard_of(7), 3);
        assert_eq!(m.primary_of(0), "a:1");
        assert_eq!(m.primary_of(1), "b:2");
    }

    #[test]
    fn encode_decode_roundtrip_and_corruption_detected() {
        let m = sample();
        let bytes = m.encode();
        assert_eq!(ClusterManifest::decode(&bytes).unwrap(), m);
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x20;
        assert!(ClusterManifest::decode(&bad).is_err());
        assert!(ClusterManifest::decode(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn promote_swings_primary_and_bumps_version() {
        let mut m = sample();
        let v0 = m.version;
        let promoted = m.promote(1).unwrap();
        assert_eq!(promoted, "c:3");
        assert_eq!(m.shards[1].primary, "c:3");
        assert!(m.shards[1].replicas.is_empty());
        assert_eq!(m.version, v0 + 1);
        assert!(m.promote(1).is_err(), "no replica left");
    }

    #[test]
    fn adopt_takes_only_strictly_newer() {
        let mut local = sample();
        let mut remote = sample();
        assert!(!local.adopt(&remote).unwrap(), "same version ignored");
        remote.promote(0).unwrap();
        assert!(local.adopt(&remote).unwrap());
        assert_eq!(local, remote);
        assert!(!local.adopt(&remote).unwrap(), "re-publication idempotent");
        let other = ClusterManifest::new("other", 1, &["x:0".into()]).unwrap();
        assert!(local.adopt(&other).is_err());
    }
}
