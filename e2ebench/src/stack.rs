//! The system under test: one local shard behind a `ShardRouter`, served
//! over loopback TCP by a `NetServer`, with one tenant holding the full
//! key set (public, relinearization and slot-sum Galois keys).

use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::router::ShardSpec;
use hefv_net::{NetServer, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::Arc;

/// The benchmark's single tenant.
pub const TENANT: TenantId = 1;

/// Everything a run needs to generate inputs, check replies and call the
/// layers directly.
pub struct Stack {
    /// The served parameter set.
    pub ctx: Arc<FvContext>,
    /// The tenant's secret key (client side only; never registered).
    pub sk: SecretKey,
    /// The key material registered with the router.
    pub keys: TenantKeys,
    /// The router with its one local shard.
    pub router: Arc<ShardRouter>,
    /// The loopback TCP front-end.
    pub server: NetServer,
}

impl Stack {
    /// Builds the context, generates keys from `seed`, starts a router
    /// with one local shard of `workers` workers (default
    /// [`EngineConfig`] otherwise), registers the tenant and binds the
    /// server on an ephemeral loopback port. This is exactly what the
    /// `setup_s` metric times.
    ///
    /// # Errors
    ///
    /// Context, registration or bind failures, as text.
    pub fn start(params: FvParams, seed: u64, workers: usize) -> Result<Stack, String> {
        let ctx = Arc::new(FvContext::new(params).map_err(|e| e.to_string())?);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6B65_7973);
        let (sk, pk, rlk) = keygen(&ctx, &mut rng);
        let galois = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
        let keys = TenantKeys::full(pk, rlk, galois);
        let router = Arc::new(ShardRouter::new());
        router
            .add_shard(ShardSpec {
                name: "s0".into(),
                ctx: Arc::clone(&ctx),
                config: EngineConfig {
                    workers,
                    ..EngineConfig::default()
                },
            })
            .map_err(|e| e.to_string())?;
        router
            .register_tenant(TENANT, keys.clone())
            .map_err(|e| e.to_string())?;
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&router), ServerConfig::default())
            .map_err(|e| e.to_string())?;
        Ok(Stack {
            ctx,
            sk,
            keys,
            router,
            server,
        })
    }

    /// The server's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The tenant's public key.
    pub fn pk(&self) -> &PublicKey {
        self.keys.pk.as_deref().expect("full key set")
    }

    /// The tenant's relinearization key.
    pub fn rlk(&self) -> &RelinKey {
        self.keys.rlk.as_deref().expect("full key set")
    }

    /// The tenant's slot-sum Galois key set.
    pub fn galois(&self) -> &GaloisKeySet {
        self.keys.galois.as_deref().expect("full key set")
    }

    /// Stops the server (draining in-flight replies), then the engine.
    pub fn stop(self) {
        self.server.shutdown();
        self.router.shutdown();
    }
}
