//! The location service model (paper §3): objects, descriptors,
//! sightings, registration parameters, query semantics and update
//! policies.

mod descriptor;
mod error;
mod hlc;
mod query;
pub mod semantics;
mod update_policy;

pub(crate) use descriptor::valid_acc;
pub use descriptor::{LocationDescriptor, RegInfo, Sighting};
pub use error::LsError;
pub use hlc::{Hlc, HlcClock};
pub use query::{NeighborAnswer, QueryQos, RangeAnswer, RangeQuery};
pub use update_policy::{LastReport, UpdateDecision, UpdatePolicy};

use std::fmt;

/// Identifier of a tracked object, unique within the service's
/// namespace `OId`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
)]
pub struct ObjectId(pub u64);

hiloc_net::wire_newtype!(ObjectId(u64));

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(v: u64) -> Self {
        ObjectId(v)
    }
}

/// Microseconds on the service clock.
///
/// The paper assumes synchronized clocks across sensors and servers
/// ("for this timestamp we assume synchronized clocks, which can, for
/// example, be achieved by using the very accurate time provided by a
/// GPS receiver"); all hiloc runtimes provide a single logical clock.
pub type Micros = u64;

/// One second in [`Micros`].
pub const SECOND: Micros = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_display_and_convert() {
        let oid: ObjectId = 42u64.into();
        assert_eq!(oid.to_string(), "o42");
        assert_eq!(oid, ObjectId(42));
    }
}
