//! # hiloc-core — the hierarchical location service
//!
//! This crate implements the primary contribution of *"Architecture of a
//! Large-Scale Location Service"* (Leonhardi & Rothermel):
//!
//! * the **service model** (§3): location descriptors with accuracy,
//!   sighting records, registration with negotiated accuracy ranges, and
//!   the exact semantics of position, range and nearest-neighbor queries
//!   ([`model`]);
//! * the **hierarchical architecture** (§4): service areas partitioned
//!   into a server tree with forwarding paths from the root to each
//!   object's *agent* leaf server ([`area`]);
//! * the **algorithms** (§6): registration, position updates, handover,
//!   position / range / nearest-neighbor query processing, soft-state
//!   expiry — implemented as a sans-IO, event-driven state machine per
//!   server ([`node`]);
//! * the **caching optimizations** (§6.5, [`cache`]);
//! * the **event predicates** sketched in §1/§8, evaluated client-side
//!   over the range query by a [`events::Watch`] ([`events`]);
//! * **runtimes** that drive the same server logic deterministically in
//!   virtual time, across OS threads, or over UDP ([`runtime`]).
//!
//! # Quick start
//!
//! ```
//! use hiloc_core::area::HierarchyBuilder;
//! use hiloc_core::model::{ObjectId, Sighting};
//! use hiloc_core::runtime::SimDeployment;
//! use hiloc_geo::{Point, Rect, Region};
//!
//! // A 1 km x 1 km service area split into 2x2 leaf areas (as in the
//! // paper's testbed, Fig. 8).
//! let hierarchy = HierarchyBuilder::grid(
//!     Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)), 1, 2,
//! ).build().unwrap();
//! let mut ls = SimDeployment::new(hierarchy, Default::default(), 42);
//!
//! // Register a tracked object and query it back.
//! let oid = ObjectId(7);
//! let entry = ls.leaf_for(Point::new(100.0, 100.0));
//! ls.register(entry, Sighting::new(oid, 0, Point::new(100.0, 100.0), 10.0), 25.0, 100.0)
//!     .expect("registration succeeds");
//! let ld = ls.pos_query(entry, oid).expect("object known");
//! assert_eq!(ld.pos, Point::new(100.0, 100.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod cache;
pub mod events;
pub mod model;
pub mod node;
pub mod proto;
pub mod runtime;

pub use model::{LocationDescriptor, ObjectId, Sighting};
pub use node::{LocationServer, ServerOptions};
pub use proto::Message;
