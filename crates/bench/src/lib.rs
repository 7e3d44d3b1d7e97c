//! Shared benchmark support: a lazily generated world so every Criterion
//! target amortises the one-time generation cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lacnet_core::DataSource;
use lacnet_crisis::{World, WorldConfig};
use std::sync::{Arc, OnceLock};

/// The config every bench world is generated from (reduced M-Lab volume
/// keeps world generation itself out of the measured loops' setup time).
fn bench_config() -> WorldConfig {
    WorldConfig {
        mlab_volume_scale: 0.2,
        ..WorldConfig::default()
    }
}

/// The world all benches run against.
pub fn bench_world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(bench_config()))
}

/// The same world, generated on its own and moved into the in-memory
/// battery interface, for the per-artifact experiment and serving
/// benches.
pub fn bench_source() -> &'static Arc<DataSource> {
    static SOURCE: OnceLock<Arc<DataSource>> = OnceLock::new();
    SOURCE.get_or_init(|| Arc::new(DataSource::from(World::generate(bench_config()))))
}
