//! Hierarchy configuration records and builders.

use hiloc_geo::{Point, Rect};
use hiloc_net::ServerId;
use std::collections::BTreeMap;
use std::fmt;

/// A child entry in a server's configuration record (`c.children`):
/// the child's identity and its service area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildRef {
    /// The child server.
    pub id: ServerId,
    /// The child's service area.
    pub area: Rect,
}

/// A location server's configuration record (the paper's `c`, §5):
/// its service area, parent, children — plus deployment-wide constants
/// every server knows (the root area).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// This server's identity.
    pub id: ServerId,
    /// The service area `c.sa` this server is responsible for.
    pub area: Rect,
    /// The parent server (`c.parent`); `None` for the root.
    pub parent: Option<ServerId>,
    /// Child records (`c.children`); empty for leaf servers.
    pub children: Vec<ChildRef>,
    /// The root service area (deployment constant, used by query
    /// coordinators to compute coverage targets).
    pub root_area: Rect,
    /// Depth in the tree (0 = root).
    pub level: u32,
}

impl ServerConfig {
    /// True when this server has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Half-open containment in this server's service area.
    pub fn contains(&self, p: Point) -> bool {
        self.area.contains_half_open(p)
    }

    /// The child whose service area contains `p`, when any.
    pub fn child_for(&self, p: Point) -> Option<ServerId> {
        self.children
            .iter()
            .find(|c| c.area.contains_half_open(p))
            .map(|c| c.id)
    }
}

/// Errors detected by [`Hierarchy::validate`] or rejected hierarchy
/// mutations.
#[derive(Debug, Clone, PartialEq)]
pub enum HierarchyError {
    /// The hierarchy has no (active) servers.
    Empty,
    /// A server references a parent/child id that does not exist.
    DanglingReference(ServerId),
    /// An active server references a retired one.
    RetiredReference(ServerId),
    /// A child's recorded parent does not match.
    ParentMismatch(ServerId),
    /// Two sibling areas overlap with positive area.
    SiblingOverlap(ServerId, ServerId),
    /// A non-leaf server's children do not cover its area.
    IncompleteCover(ServerId),
    /// A child's area is not contained in its parent's.
    ChildEscapesParent(ServerId),
    /// More than one root exists.
    MultipleRoots(ServerId, ServerId),
    /// Recorded level is inconsistent with the tree depth.
    BadLevel(ServerId),
    /// The operation requires a leaf server.
    NotALeaf(ServerId),
    /// The operation requires a non-root server (a root-leaf cannot be
    /// split or retired — its area is the deployment constant).
    NoParent(ServerId),
    /// Leave: no sibling leaf shares a full edge with the leaving
    /// server, so its area cannot be absorbed into a rectangle.
    NoMergeableSibling(ServerId),
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::Empty => write!(f, "hierarchy has no active servers"),
            HierarchyError::DanglingReference(s) => write!(f, "{s} references a missing server"),
            HierarchyError::RetiredReference(s) => write!(f, "{s} references a retired server"),
            HierarchyError::ParentMismatch(s) => write!(f, "{s} has an inconsistent parent link"),
            HierarchyError::SiblingOverlap(a, b) => write!(f, "sibling areas of {a} and {b} overlap"),
            HierarchyError::IncompleteCover(s) => write!(f, "children of {s} do not cover its area"),
            HierarchyError::ChildEscapesParent(s) => write!(f, "a child area of {s} escapes it"),
            HierarchyError::MultipleRoots(a, b) => write!(f, "multiple roots: {a} and {b}"),
            HierarchyError::BadLevel(s) => write!(f, "{s} has an inconsistent level"),
            HierarchyError::NotALeaf(s) => write!(f, "{s} is not a leaf"),
            HierarchyError::NoParent(s) => write!(f, "{s} has no parent"),
            HierarchyError::NoMergeableSibling(s) => {
                write!(f, "no sibling of {s} can absorb its area into a rectangle")
            }
        }
    }
}

impl std::error::Error for HierarchyError {}

/// A validated server hierarchy: the configuration of a deployment.
///
/// Server ids are dense (`0..len`); builders assign them in
/// breadth-first order with the root as `ServerId(0)`. The hierarchy
/// is **reconfigurable**: servers can join ([`Hierarchy::split_leaf`])
/// and leave ([`Hierarchy::retire_leaf`]), and the root role can fail
/// over to a warm standby or a fresh successor
/// ([`Hierarchy::promote_root`]). Retired servers keep their id slot
/// (ids are never reused — they index the runtime's server tables) but
/// are excluded from validation, routing and iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy {
    servers: Vec<ServerConfig>,
    /// The current root (the single active parent-less server).
    root: ServerId,
    /// Retirement markers, parallel to `servers`.
    retired: Vec<bool>,
    /// Warm standbys, `shadowed server → standby slot` (see
    /// [`Hierarchy::reserve_standby`]).
    standbys: BTreeMap<ServerId, ServerId>,
}

impl Hierarchy {
    /// Builds a hierarchy from explicit configuration records and
    /// validates it.
    ///
    /// # Errors
    ///
    /// Returns the first [`HierarchyError`] found.
    pub fn from_configs(servers: Vec<ServerConfig>) -> Result<Self, HierarchyError> {
        let retired = vec![false; servers.len()];
        Self::assemble(servers, retired)
    }

    /// Finds the root among active servers, then validates.
    fn assemble(servers: Vec<ServerConfig>, retired: Vec<bool>) -> Result<Self, HierarchyError> {
        // Ids must be dense and in slot order — every table here and in
        // the runtimes indexes by id. Checked before any id-indexed
        // read so a malformed document errors instead of panicking.
        for (i, s) in servers.iter().enumerate() {
            if s.id.0 as usize != i {
                return Err(HierarchyError::DanglingReference(s.id));
            }
        }
        let root = servers
            .iter()
            .find(|s| !retired[s.id.0 as usize] && s.parent.is_none())
            .map(|s| s.id)
            .ok_or(HierarchyError::Empty)?;
        let h = Hierarchy { servers, root, retired, standbys: BTreeMap::new() };
        h.validate()?;
        Ok(h)
    }

    /// The current root server's id.
    pub fn root(&self) -> ServerId {
        self.root
    }

    /// Whether `id` has been retired (left the tree; its id slot is
    /// kept so ids stay dense and are never reused).
    pub fn is_retired(&self, id: ServerId) -> bool {
        self.retired[id.0 as usize]
    }

    /// The warm standby designated for `of`, when one is.
    pub fn standby_of(&self, of: ServerId) -> Option<ServerId> {
        self.standbys.get(&of).copied()
    }

    /// Whether `id` is a designated standby's slot.
    pub fn is_standby(&self, id: ServerId) -> bool {
        self.standbys.values().any(|&s| s == id)
    }

    /// Whether a server runs in slot `id`: an active server, or a
    /// designated standby (retired in the tree, live as a process).
    pub fn runs(&self, id: ServerId) -> bool {
        self.retired.get(id.0 as usize).is_some_and(|&r| !r) || self.is_standby(id)
    }

    /// Iterator over the active (non-retired) configurations.
    pub fn active(&self) -> impl Iterator<Item = &ServerConfig> {
        self.servers.iter().filter(|s| !self.retired[s.id.0 as usize])
    }

    /// The configuration record of `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not part of this hierarchy.
    pub fn server(&self, id: ServerId) -> &ServerConfig {
        &self.servers[id.0 as usize]
    }

    /// All configuration records — including retired ones — indexed by
    /// server id (retired servers keep a degenerate record in their
    /// slot).
    pub fn servers(&self) -> &[ServerConfig] {
        &self.servers
    }

    /// Number of server id slots ever allocated (active + retired).
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when the hierarchy has no servers (never, once validated).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Iterator over active leaf configurations.
    pub fn leaves(&self) -> impl Iterator<Item = &ServerConfig> {
        self.active().filter(|s| s.is_leaf())
    }

    /// The root service area.
    pub fn root_area(&self) -> Rect {
        self.server(self.root).root_area
    }

    /// Tree height: number of edges from root to the deepest leaf.
    pub fn height(&self) -> u32 {
        self.active().map(|s| s.level).max().unwrap_or(0)
    }

    /// The leaf server responsible for `p`, or `None` when `p` is
    /// outside the (half-open) root area.
    pub fn leaf_for(&self, p: Point) -> Option<ServerId> {
        let mut cur = self.server(self.root);
        if !cur.contains(p) {
            return None;
        }
        while !cur.is_leaf() {
            let child = cur.child_for(p)?;
            cur = self.server(child);
        }
        Some(cur.id)
    }

    /// Serializes the hierarchy to JSON (the paper keeps each server's
    /// configuration record on persistent storage; hiloc persists the
    /// whole deployment configuration in one readable document).
    /// Standby designations are the running deployment's and are not
    /// written: a loaded hierarchy keeps their slots retired.
    pub fn to_json(&self) -> String {
        use hiloc_util::json::Json;
        let servers = self
            .servers
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(f64::from(s.id.0))),
                    ("area".into(), rect_to_json(&s.area)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p.0))),
                    ),
                    (
                        "children".into(),
                        Json::Arr(
                            s.children
                                .iter()
                                .map(|c| {
                                    Json::Obj(vec![
                                        ("id".into(), Json::Num(f64::from(c.id.0))),
                                        ("area".into(), rect_to_json(&c.area)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("root_area".into(), rect_to_json(&s.root_area)),
                    ("level".into(), Json::Num(f64::from(s.level))),
                    (
                        "retired".into(),
                        Json::Bool(self.retired[s.id.0 as usize]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![("servers".into(), Json::Arr(servers))]).to_string_pretty()
    }

    /// Deserializes and **validates** a hierarchy from JSON.
    ///
    /// # Errors
    ///
    /// Returns a parse error or the first structural violation.
    pub fn from_json(json: &str) -> Result<Self, Box<dyn std::error::Error + Send + Sync>> {
        use hiloc_util::json::Json;
        let doc = Json::parse(json)?;
        let missing = |what: &str| -> Box<dyn std::error::Error + Send + Sync> {
            format!("missing or invalid field '{what}'").into()
        };
        let mut retired = Vec::new();
        let servers = doc
            .get("servers")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("servers"))?
            .iter()
            .map(|s| {
                let server_id = |v: &Json| v.as_u64().and_then(|n| u32::try_from(n).ok());
                let id = s.get("id").and_then(server_id).ok_or_else(|| missing("id"))?;
                let parent = match s.get("parent") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(ServerId(server_id(v).ok_or_else(|| missing("parent"))?)),
                };
                let children = s
                    .get("children")
                    .and_then(Json::as_array)
                    .ok_or_else(|| missing("children"))?
                    .iter()
                    .map(|c| {
                        Ok(ChildRef {
                            id: ServerId(
                                c.get("id").and_then(server_id).ok_or_else(|| missing("child id"))?,
                            ),
                            area: rect_from_json(c.get("area")).ok_or_else(|| missing("child area"))?,
                        })
                    })
                    .collect::<Result<Vec<_>, Box<dyn std::error::Error + Send + Sync>>>()?;
                // Back-compat: documents written before reconfiguration
                // support have no "retired" field.
                retired.push(s.get("retired").and_then(Json::as_bool).unwrap_or(false));
                Ok(ServerConfig {
                    id: ServerId(id),
                    area: rect_from_json(s.get("area")).ok_or_else(|| missing("area"))?,
                    parent,
                    children,
                    root_area: rect_from_json(s.get("root_area"))
                        .ok_or_else(|| missing("root_area"))?,
                    level: s
                        .get("level")
                        .and_then(Json::as_u64)
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| missing("level"))?,
                })
            })
            .collect::<Result<Vec<_>, Box<dyn std::error::Error + Send + Sync>>>()?;
        Ok(Self::assemble(servers, retired)?)
    }

    /// Writes the configuration to a file (atomically via a sibling
    /// temp file).
    ///
    /// # Errors
    ///
    /// Returns an error on serialization or I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let json = self.to_json();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads and validates a configuration from a file.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O, parse or validation failure.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(std::io::Error::other)
    }

    /// Checks the paper's two structural requirements plus link
    /// consistency over the **active** servers (retired servers are
    /// skipped, but an active server referencing a retired one is an
    /// error); see [`HierarchyError`].
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), HierarchyError> {
        if self.servers.is_empty() {
            return Err(HierarchyError::Empty);
        }
        let n = self.servers.len() as u32;
        let mut root_seen: Option<ServerId> = None;
        for s in self.active() {
            if let Some(p) = s.parent {
                if p.0 >= n {
                    return Err(HierarchyError::DanglingReference(s.id));
                }
                if self.retired[p.0 as usize] {
                    return Err(HierarchyError::RetiredReference(s.id));
                }
                let parent = &self.servers[p.0 as usize];
                if !parent.children.iter().any(|c| c.id == s.id) {
                    return Err(HierarchyError::ParentMismatch(s.id));
                }
                if s.level != parent.level + 1 {
                    return Err(HierarchyError::BadLevel(s.id));
                }
            } else {
                match root_seen {
                    None => root_seen = Some(s.id),
                    Some(other) => return Err(HierarchyError::MultipleRoots(other, s.id)),
                }
                if s.level != 0 {
                    return Err(HierarchyError::BadLevel(s.id));
                }
            }
            // Children: containment, disjointness, coverage, back-links.
            let mut child_area_sum = 0.0;
            for (i, c) in s.children.iter().enumerate() {
                if c.id.0 >= n {
                    return Err(HierarchyError::DanglingReference(s.id));
                }
                if self.retired[c.id.0 as usize] {
                    return Err(HierarchyError::RetiredReference(s.id));
                }
                let child = &self.servers[c.id.0 as usize];
                if child.parent != Some(s.id) {
                    return Err(HierarchyError::ParentMismatch(c.id));
                }
                if child.area != c.area {
                    return Err(HierarchyError::ParentMismatch(c.id));
                }
                if !s.area.contains_rect(&c.area) {
                    return Err(HierarchyError::ChildEscapesParent(s.id));
                }
                child_area_sum += c.area.area();
                for other in &s.children[i + 1..] {
                    if c.area.intersection_area(&other.area) > 1e-6 {
                        return Err(HierarchyError::SiblingOverlap(c.id, other.id));
                    }
                }
            }
            if !s.children.is_empty() {
                let target = s.area.area();
                if (child_area_sum - target).abs() > 1e-6 * target.max(1.0) {
                    return Err(HierarchyError::IncompleteCover(s.id));
                }
            }
        }
        if root_seen.is_none() {
            return Err(HierarchyError::Empty);
        }
        Ok(())
    }

    // ------------------------------------------------- reconfiguration
    //
    // Every mutation builds a candidate, re-validates it, and only then
    // replaces `self` — a rejected reshape leaves the tree untouched.

    /// **Join**: a new server enters the tree by splitting the service
    /// area of the existing leaf `split` along its longer axis. The
    /// split leaf keeps the lower/left half; the new server takes the
    /// upper/right half and becomes its sibling (same parent, same
    /// level). Returns the new server's id (always `len()` before the
    /// call — callers can predict it when scripting scenarios).
    ///
    /// Moving the covered visitor records is the runtime's job (a bulk
    /// `stateTransfer`); this only reshapes the configuration records.
    ///
    /// # Errors
    ///
    /// [`HierarchyError::NotALeaf`] / [`HierarchyError::RetiredReference`]
    /// when `split` cannot be split, [`HierarchyError::NoParent`] for a
    /// root-leaf (its area is the deployment constant).
    pub fn split_leaf(&mut self, split: ServerId) -> Result<ServerId, HierarchyError> {
        let cfg = self.checked_leaf(split)?;
        let parent = cfg.parent.ok_or(HierarchyError::NoParent(split))?;
        let area = cfg.area;
        let (kept, taken) = if area.width() >= area.height() {
            let cx = area.center().x;
            (
                Rect::new(area.min(), Point::new(cx, area.max().y)),
                Rect::new(Point::new(cx, area.min().y), area.max()),
            )
        } else {
            let cy = area.center().y;
            (
                Rect::new(area.min(), Point::new(area.max().x, cy)),
                Rect::new(Point::new(area.min().x, cy), area.max()),
            )
        };
        let new_id = ServerId(self.servers.len() as u32);
        let mut next = self.clone();
        next.servers[split.0 as usize].area = kept;
        next.servers.push(ServerConfig {
            id: new_id,
            area: taken,
            parent: Some(parent),
            children: Vec::new(),
            root_area: cfg.root_area,
            level: cfg.level,
        });
        next.retired.push(false);
        let pc = &mut next.servers[parent.0 as usize].children;
        pc.iter_mut().find(|c| c.id == split).expect("validated back-link").area = kept;
        pc.push(ChildRef { id: new_id, area: taken });
        next.validate()?;
        *self = next;
        Ok(new_id)
    }

    /// **Leave**: the leaf `id` detaches from the tree. Its area is
    /// absorbed by a sibling leaf sharing a full edge (so the union is
    /// again a rectangle); the leaving server is marked retired and its
    /// configuration record degenerates to an empty area — after any
    /// restart it can never again accept an update, so every object
    /// still pointing at it is pushed back into the tree by the
    /// ordinary handover path. Returns the absorbing sibling.
    ///
    /// Draining the visitor records to the absorber (bulk
    /// `stateTransfer`) is the runtime's job.
    ///
    /// # Errors
    ///
    /// [`HierarchyError::NoMergeableSibling`] when no sibling leaf can
    /// absorb the area; [`HierarchyError::NoParent`] for a root-leaf.
    pub fn retire_leaf(&mut self, id: ServerId) -> Result<ServerId, HierarchyError> {
        let cfg = self.checked_leaf(id)?;
        let parent = cfg.parent.ok_or(HierarchyError::NoParent(id))?;
        let area = cfg.area;
        let absorber = self.servers[parent.0 as usize]
            .children
            .iter()
            .filter(|c| c.id != id && self.servers[c.id.0 as usize].is_leaf())
            .find_map(|c| merge_rect(&c.area, &area).map(|u| (c.id, u)))
            .ok_or(HierarchyError::NoMergeableSibling(id))?;
        let (absorber, union) = absorber;
        let mut next = self.clone();
        next.servers[absorber.0 as usize].area = union;
        let pc = &mut next.servers[parent.0 as usize].children;
        pc.retain(|c| c.id != id);
        pc.iter_mut().find(|c| c.id == absorber).expect("validated back-link").area = union;
        next.retired[id.0 as usize] = true;
        // Degenerate retired record: zero area (rejects every position),
        // parent kept so a restarted straggler still hands its leftover
        // visitors up into the live tree.
        next.servers[id.0 as usize].area = Rect::new(area.min(), area.min());
        next.validate()?;
        *self = next;
        Ok(absorber)
    }

    /// **Root failover**: a fresh successor server takes over the root
    /// role — same service area, same children — and the old root is
    /// retired (its id is never reused). Returns the successor's id
    /// (always `len()` before the call).
    ///
    /// Rebuilding the successor's forwarding table (`pathSync` against
    /// the children, plus the leaves' ordinary keep-alives) is the
    /// runtime's job.
    ///
    /// # Errors
    ///
    /// Returns a validation error when the resulting tree is broken
    /// (cannot happen for a well-formed input).
    pub fn fail_over_root(&mut self) -> Result<ServerId, HierarchyError> {
        let mut next = self.clone();
        let new_id = next.push_slot(self.root);
        next.fail_over_root_to(new_id)?;
        *self = next;
        Ok(new_id)
    }

    /// Reserves a server-id slot for a **warm standby** of `template`
    /// (any active non-leaf) and designates it, replacing any earlier
    /// designation: the slot holds a copy of the template's
    /// configuration but is marked retired, so it takes no part in
    /// routing or validation until [`Hierarchy::promote_root`]
    /// activates it. Returns the reserved id (always `len()` before
    /// the call). The runtime keeps a live server instance in the slot
    /// and streams forwarding-table deltas into it.
    ///
    /// # Errors
    ///
    /// [`HierarchyError::NotALeaf`] is never returned here; the call
    /// fails with [`HierarchyError::RetiredReference`] when `template`
    /// is retired and [`HierarchyError::DanglingReference`] when the
    /// id is out of range.
    pub fn reserve_standby(&mut self, template: ServerId) -> Result<ServerId, HierarchyError> {
        if template.0 as usize >= self.servers.len() {
            return Err(HierarchyError::DanglingReference(template));
        }
        if self.retired[template.0 as usize] {
            return Err(HierarchyError::RetiredReference(template));
        }
        let new_id = self.push_slot(template);
        self.standbys.insert(template, new_id);
        Ok(new_id)
    }

    /// Appends a retired copy of `template`'s record under a fresh id.
    fn push_slot(&mut self, template: ServerId) -> ServerId {
        let id = ServerId(self.servers.len() as u32);
        self.servers.push(ServerConfig { id, ..self.server(template).clone() });
        self.retired.push(true);
        id
    }

    /// **Root promotion** after the root failed: its designated standby
    /// takes over in place when `alive` says it still runs
    /// ([`Hierarchy::fail_over_root_to`]), otherwise a fresh successor
    /// does ([`Hierarchy::fail_over_root`]). Either way the old root's
    /// designation is used up. Returns the new root and whether it was
    /// the warm standby.
    ///
    /// # Errors
    ///
    /// Returns a validation error when the resulting tree is broken.
    pub fn promote_root(
        &mut self,
        alive: impl Fn(ServerId) -> bool,
    ) -> Result<(ServerId, bool), HierarchyError> {
        match self.standby_of(self.root) {
            Some(standby) if alive(standby) => {
                self.fail_over_root_to(standby).map(|()| (standby, true))
            }
            _ => self.fail_over_root().map(|id| (id, false)),
        }
    }

    /// **Root failover to a reserved slot**: `slot` (a standby, see
    /// [`Hierarchy::reserve_standby`]) takes over the root role and the
    /// old root is retired, its standby designation with it. No fresh
    /// id is allocated — the slot is activated in place, with its
    /// configuration rebuilt from the old root's *current* record
    /// (children may have changed since designation; the runtime's
    /// delta stream tracked those changes in the standby's forwarding
    /// table already).
    ///
    /// # Errors
    ///
    /// Returns a validation error when the resulting tree is broken.
    pub fn fail_over_root_to(&mut self, slot: ServerId) -> Result<(), HierarchyError> {
        if slot.0 as usize >= self.servers.len() {
            return Err(HierarchyError::DanglingReference(slot));
        }
        let old = self.root;
        let old_cfg = self.server(old).clone();
        let mut next = self.clone();
        next.servers[slot.0 as usize] =
            ServerConfig { id: slot, parent: None, level: 0, ..old_cfg };
        next.retired[slot.0 as usize] = false;
        // Everyone pointing at the dead root is repointed: the
        // successor's children, and retired stragglers (absent from
        // the children list) whose kept parent is their only way to
        // push leftover records back into the live tree.
        for cfg in &mut next.servers {
            if cfg.parent == Some(old) && cfg.id != slot {
                cfg.parent = Some(slot);
            }
        }
        next.retired[old.0 as usize] = true;
        next.standbys.remove(&old);
        next.root = slot;
        next.validate()?;
        *self = next;
        Ok(())
    }

    /// Shared precondition check for leaf mutations.
    fn checked_leaf(&self, id: ServerId) -> Result<&ServerConfig, HierarchyError> {
        if id.0 as usize >= self.servers.len() {
            return Err(HierarchyError::DanglingReference(id));
        }
        if self.retired[id.0 as usize] {
            return Err(HierarchyError::RetiredReference(id));
        }
        let cfg = self.server(id);
        if !cfg.is_leaf() {
            return Err(HierarchyError::NotALeaf(id));
        }
        Ok(cfg)
    }
}

/// The union of two rectangles when they share a full edge (exactly —
/// reshape areas come from exact midpoint splits, so shared edges are
/// bit-identical), else `None`.
fn merge_rect(a: &Rect, b: &Rect) -> Option<Rect> {
    let same_y = a.min().y == b.min().y && a.max().y == b.max().y;
    let same_x = a.min().x == b.min().x && a.max().x == b.max().x;
    let adjacent_x = a.max().x == b.min().x || b.max().x == a.min().x;
    let adjacent_y = a.max().y == b.min().y || b.max().y == a.min().y;
    if (same_y && adjacent_x) || (same_x && adjacent_y) {
        Some(a.union(b))
    } else {
        None
    }
}

fn rect_to_json(r: &Rect) -> hiloc_util::json::Json {
    use hiloc_util::json::Json;
    Json::Obj(vec![
        ("min_x".into(), Json::Num(r.min().x)),
        ("min_y".into(), Json::Num(r.min().y)),
        ("max_x".into(), Json::Num(r.max().x)),
        ("max_y".into(), Json::Num(r.max().y)),
    ])
}

fn rect_from_json(v: Option<&hiloc_util::json::Json>) -> Option<Rect> {
    use hiloc_util::json::Json;
    let v = v?;
    let f = |key: &str| v.get(key).and_then(Json::as_f64);
    Some(Rect::new(
        Point::new(f("min_x")?, f("min_y")?),
        Point::new(f("max_x")?, f("max_y")?),
    ))
}

/// Builds regular hierarchies over a rectangular root area.
///
/// # Example
///
/// ```
/// use hiloc_core::area::HierarchyBuilder;
/// use hiloc_geo::{Point, Rect};
///
/// // The paper's testbed (Fig. 8): one root, four leaves (2x2).
/// let root = Rect::new(Point::new(0.0, 0.0), Point::new(1_500.0, 1_500.0));
/// let h = HierarchyBuilder::grid(root, 1, 2).build().unwrap();
/// assert_eq!(h.len(), 5);
/// assert_eq!(h.leaves().count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct HierarchyBuilder {
    root_area: Rect,
    levels: u32,
    split: SplitRule,
}

#[derive(Debug, Clone, Copy)]
enum SplitRule {
    /// Each non-leaf splits into `k × k` equal cells.
    Grid(u32),
    /// Each non-leaf splits into two halves, alternating the axis per
    /// level (produces the paper's Fig. 6 shape with `levels = 2`).
    Binary,
}

impl HierarchyBuilder {
    /// A hierarchy where every non-leaf splits into `k × k` children,
    /// `levels` levels below the root (`levels = 0` is a single-server
    /// deployment).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (with levels > 0) or the root area is empty.
    pub fn grid(root_area: Rect, levels: u32, k: u32) -> Self {
        assert!(root_area.area() > 0.0, "root service area must have positive area");
        assert!(levels == 0 || k >= 2, "grid split needs k >= 2");
        HierarchyBuilder { root_area, levels, split: SplitRule::Grid(k) }
    }

    /// A hierarchy where every non-leaf splits in two, alternating
    /// vertical/horizontal cuts per level.
    ///
    /// # Panics
    ///
    /// Panics if the root area is empty.
    pub fn binary(root_area: Rect, levels: u32) -> Self {
        assert!(root_area.area() > 0.0, "root service area must have positive area");
        HierarchyBuilder { root_area, levels, split: SplitRule::Binary }
    }

    /// Builds and validates the hierarchy (breadth-first ids, root 0).
    ///
    /// # Errors
    ///
    /// Returns a [`HierarchyError`] if the generated structure fails
    /// validation (cannot happen for the provided split rules; kept for
    /// API honesty).
    pub fn build(&self) -> Result<Hierarchy, HierarchyError> {
        struct ProtoNode {
            area: Rect,
            parent: Option<ServerId>,
            level: u32,
        }
        let mut nodes = vec![ProtoNode { area: self.root_area, parent: None, level: 0 }];
        let mut children_of: Vec<Vec<ServerId>> = vec![Vec::new()];
        let mut frontier = vec![ServerId(0)];

        for level in 0..self.levels {
            let mut next = Vec::new();
            for &pid in &frontier {
                let parent_area = nodes[pid.0 as usize].area;
                let cells = match self.split {
                    SplitRule::Grid(k) => split_grid(parent_area, k),
                    SplitRule::Binary => split_binary(parent_area, level),
                };
                for cell in cells {
                    let id = ServerId(nodes.len() as u32);
                    nodes.push(ProtoNode { area: cell, parent: Some(pid), level: level + 1 });
                    children_of.push(Vec::new());
                    children_of[pid.0 as usize].push(id);
                    next.push(id);
                }
            }
            frontier = next;
        }

        let configs = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| ServerConfig {
                id: ServerId(i as u32),
                area: n.area,
                parent: n.parent,
                children: children_of[i]
                    .iter()
                    .map(|&cid| ChildRef { id: cid, area: nodes[cid.0 as usize].area })
                    .collect(),
                root_area: self.root_area,
                level: n.level,
            })
            .collect();
        Hierarchy::from_configs(configs)
    }
}

fn split_grid(area: Rect, k: u32) -> Vec<Rect> {
    let mut out = Vec::with_capacity((k * k) as usize);
    let w = area.width() / k as f64;
    let h = area.height() / k as f64;
    for row in 0..k {
        for col in 0..k {
            let min = Point::new(area.min().x + col as f64 * w, area.min().y + row as f64 * h);
            out.push(Rect::new(min, min + Point::new(w, h)));
        }
    }
    out
}

fn split_binary(area: Rect, level: u32) -> Vec<Rect> {
    let c = area.center();
    if level.is_multiple_of(2) {
        // Vertical cut: west / east halves.
        vec![
            Rect::new(area.min(), Point::new(c.x, area.max().y)),
            Rect::new(Point::new(c.x, area.min().y), area.max()),
        ]
    } else {
        // Horizontal cut: south / north halves.
        vec![
            Rect::new(area.min(), Point::new(area.max().x, c.y)),
            Rect::new(Point::new(area.min().x, c.y), area.max()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root_rect() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0))
    }

    #[test]
    fn single_server_deployment() {
        let h = HierarchyBuilder::grid(root_rect(), 0, 2).build().unwrap();
        assert_eq!(h.len(), 1);
        assert!(h.server(ServerId(0)).is_leaf());
        assert!(h.server(ServerId(0)).parent.is_none());
        assert_eq!(h.height(), 0);
        assert_eq!(h.leaf_for(Point::new(1.0, 1.0)), Some(ServerId(0)));
    }

    #[test]
    fn paper_testbed_shape() {
        // Fig. 8: root + 4 leaves, each a quarter of the area.
        let h = HierarchyBuilder::grid(root_rect(), 1, 2).build().unwrap();
        assert_eq!(h.len(), 5);
        assert_eq!(h.leaves().count(), 4);
        assert_eq!(h.height(), 1);
        for leaf in h.leaves() {
            assert_eq!(leaf.area.area(), 250_000.0);
            assert_eq!(leaf.parent, Some(ServerId(0)));
        }
    }

    #[test]
    fn fig6_shape_via_binary() {
        // Fig. 6: three layers, 7 servers: s1; s2, s3; s4..s7.
        let h = HierarchyBuilder::binary(root_rect(), 2).build().unwrap();
        assert_eq!(h.len(), 7);
        assert_eq!(h.leaves().count(), 4);
        assert_eq!(h.height(), 2);
        let root = h.server(ServerId(0));
        assert_eq!(root.children.len(), 2);
    }

    #[test]
    fn leaf_routing_covers_interior_and_respects_half_open_boundaries() {
        let h = HierarchyBuilder::grid(root_rect(), 2, 2).build().unwrap();
        assert_eq!(h.leaves().count(), 16);
        // Interior point.
        let leaf = h.leaf_for(Point::new(10.0, 10.0)).unwrap();
        assert!(h.server(leaf).contains(Point::new(10.0, 10.0)));
        // Seam point belongs to exactly one leaf.
        let seam = Point::new(500.0, 250.0);
        let owner = h.leaf_for(seam).unwrap();
        let owners = h
            .leaves()
            .filter(|l| l.area.contains_half_open(seam))
            .count();
        assert_eq!(owners, 1);
        assert!(h.server(owner).contains(seam));
        // Upper-right boundary of the root is outside (half-open).
        assert_eq!(h.leaf_for(Point::new(1_000.0, 1_000.0)), None);
        assert_eq!(h.leaf_for(Point::new(-1.0, 10.0)), None);
    }

    #[test]
    fn bfs_ids_and_levels() {
        let h = HierarchyBuilder::grid(root_rect(), 2, 2).build().unwrap();
        assert_eq!(h.server(ServerId(0)).level, 0);
        for i in 1..=4 {
            assert_eq!(h.server(ServerId(i)).level, 1);
        }
        for i in 5..21 {
            assert_eq!(h.server(ServerId(i)).level, 2);
        }
    }

    #[test]
    fn validation_catches_sibling_overlap() {
        let mut h = HierarchyBuilder::grid(root_rect(), 1, 2).build().unwrap();
        // Corrupt: stretch one child's area over its sibling.
        let bad = Rect::new(Point::new(0.0, 0.0), Point::new(800.0, 500.0));
        let mut servers = h.servers().to_vec();
        servers[1].area = bad;
        servers[0].children[0].area = bad;
        let retired = vec![false; servers.len()];
        h = Hierarchy { servers, root: ServerId(0), retired, standbys: BTreeMap::new() };
        assert!(matches!(
            h.validate(),
            Err(HierarchyError::SiblingOverlap(_, _) | HierarchyError::IncompleteCover(_))
        ));
    }

    #[test]
    fn validation_catches_parent_mismatch() {
        let h = HierarchyBuilder::grid(root_rect(), 1, 2).build().unwrap();
        let mut servers = h.servers().to_vec();
        servers[2].parent = Some(ServerId(3));
        assert!(matches!(
            Hierarchy::from_configs(servers),
            Err(HierarchyError::ParentMismatch(_))
        ));
    }

    #[test]
    fn validation_catches_incomplete_cover() {
        let h = HierarchyBuilder::grid(root_rect(), 1, 2).build().unwrap();
        let mut servers = h.servers().to_vec();
        // Remove one child from the root's record and its config.
        let gone = servers[0].children.pop().unwrap();
        servers[gone.id.0 as usize].parent = None; // now a second root
        assert!(Hierarchy::from_configs(servers).is_err());
    }

    #[test]
    fn json_roundtrip_and_validation() {
        let h = HierarchyBuilder::grid(root_rect(), 2, 2).build().unwrap();
        let json = h.to_json();
        let back = Hierarchy::from_json(&json).unwrap();
        assert_eq!(h, back);

        // Corrupting the document fails validation on load.
        let bad = json.replace("\"level\": 1", "\"level\": 7");
        assert!(Hierarchy::from_json(&bad).is_err());
        assert!(Hierarchy::from_json("not json").is_err());
        // Out-of-range or permuted ids are an error, not a panic.
        let bad = json.replace("\"id\": 20", "\"id\": 99");
        assert!(Hierarchy::from_json(&bad).is_err());
    }

    #[test]
    fn save_and_load_file() {
        let h = HierarchyBuilder::binary(root_rect(), 2).build().unwrap();
        let path = std::env::temp_dir()
            .join(format!("hiloc-hierarchy-{}.json", std::process::id()));
        h.save(&path).unwrap();
        let back = Hierarchy::load(&path).unwrap();
        assert_eq!(h, back);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn split_leaf_joins_a_sibling_and_partitions_the_area() {
        let mut h = HierarchyBuilder::grid(root_rect(), 1, 2).build().unwrap();
        let victim = h.leaves().next().unwrap().id;
        let old_area = h.server(victim).area;
        let parent = h.server(victim).parent.unwrap();
        let new_id = h.split_leaf(victim).unwrap();
        assert_eq!(new_id, ServerId(5), "ids are dense and predictable");
        assert_eq!(h.len(), 6);
        assert_eq!(h.leaves().count(), 5);
        let s = h.server(new_id);
        assert_eq!(s.parent, Some(parent));
        assert_eq!(s.level, h.server(victim).level);
        // The two halves partition the old area exactly.
        assert_eq!(h.server(victim).area.union(&s.area), old_area);
        assert!((h.server(victim).area.area() + s.area.area() - old_area.area()).abs() < 1e-9);
        // Routing reaches both halves.
        assert_eq!(h.leaf_for(s.area.center()), Some(new_id));
        assert_eq!(h.leaf_for(h.server(victim).area.center()), Some(victim));
        h.validate().unwrap();
    }

    #[test]
    fn retire_leaf_is_the_inverse_of_split() {
        let mut h = HierarchyBuilder::grid(root_rect(), 1, 2).build().unwrap();
        let victim = h.leaves().next().unwrap().id;
        let old_area = h.server(victim).area;
        let new_id = h.split_leaf(victim).unwrap();
        let absorber = h.retire_leaf(new_id).unwrap();
        assert_eq!(absorber, victim);
        assert!(h.is_retired(new_id));
        assert_eq!(h.server(victim).area, old_area);
        assert_eq!(h.active().count(), 5);
        assert_eq!(h.len(), 6, "retired slots are kept, ids never reused");
        // The retired record is degenerate: it contains nothing.
        assert_eq!(h.server(new_id).area.area(), 0.0);
        // Retired servers reject further mutations.
        assert!(matches!(h.split_leaf(new_id), Err(HierarchyError::RetiredReference(_))));
        h.validate().unwrap();
    }

    #[test]
    fn retire_leaf_merges_grid_siblings() {
        // In a fresh 2×2 grid, every leaf has an edge-sharing sibling.
        let mut h = HierarchyBuilder::grid(root_rect(), 1, 2).build().unwrap();
        let victim = h.leaves().next().unwrap().id;
        let absorber = h.retire_leaf(victim).unwrap();
        assert_ne!(absorber, victim);
        assert_eq!(h.leaves().count(), 3);
        // The absorber now owns the victim's old center.
        assert_eq!(h.leaf_for(Point::new(250.0, 250.0)), Some(absorber));
        h.validate().unwrap();
    }

    #[test]
    fn root_leaf_cannot_split_or_retire() {
        let mut h = HierarchyBuilder::grid(root_rect(), 0, 2).build().unwrap();
        assert_eq!(h.split_leaf(ServerId(0)), Err(HierarchyError::NoParent(ServerId(0))));
        assert_eq!(h.retire_leaf(ServerId(0)), Err(HierarchyError::NoParent(ServerId(0))));
        let mut h2 = HierarchyBuilder::grid(root_rect(), 1, 2).build().unwrap();
        assert_eq!(h2.split_leaf(ServerId(0)), Err(HierarchyError::NotALeaf(ServerId(0))));
    }

    #[test]
    fn fail_over_root_promotes_a_fresh_successor() {
        let mut h = HierarchyBuilder::binary(root_rect(), 2).build().unwrap();
        let old_root = h.root();
        let children: Vec<ServerId> =
            h.server(old_root).children.iter().map(|c| c.id).collect();
        let new_root = h.fail_over_root().unwrap();
        assert_eq!(new_root, ServerId(7));
        assert_eq!(h.root(), new_root);
        assert!(h.is_retired(old_root));
        assert_eq!(h.server(new_root).area, root_rect());
        assert_eq!(h.server(new_root).level, 0);
        for c in children {
            assert_eq!(h.server(c).parent, Some(new_root));
        }
        // Routing still reaches every leaf through the new root.
        assert!(h.leaf_for(Point::new(10.0, 10.0)).is_some());
        h.validate().unwrap();
    }

    /// A live standby is promoted in place; a dead one, or none, gives
    /// way to a fresh successor. Either way the designation is used up.
    #[test]
    fn promote_root_adopts_a_live_standby_or_a_fresh_successor() {
        let tree = || HierarchyBuilder::binary(root_rect(), 2).build().unwrap();
        let mut h = tree();
        let old = h.root();
        let standby = h.reserve_standby(old).unwrap();
        assert_eq!(h.standby_of(old), Some(standby));
        assert!(h.is_retired(standby) && h.is_standby(standby) && h.runs(standby));
        assert_eq!(h.promote_root(|_| true), Ok((standby, true)));
        assert_eq!(h.root(), standby);
        assert!(!h.is_retired(standby) && !h.is_standby(standby));
        assert!(!h.runs(old) && h.standby_of(old).is_none());
        h.validate().unwrap();

        let mut h = tree();
        let standby = h.reserve_standby(h.root()).unwrap();
        let fresh = ServerId(h.len() as u32);
        assert_eq!(h.promote_root(|id| id != standby), Ok((fresh, false)));
        assert_eq!(h.root(), fresh);
        assert!(!h.runs(standby), "a dead standby's slot stays retired");

        let mut h = tree();
        let fresh = ServerId(h.len() as u32);
        assert_eq!(h.promote_root(|_| true), Ok((fresh, false)));
        assert_eq!(h.root(), fresh);
        assert!(!h.runs(ServerId(h.len() as u32)), "out of range");
    }

    #[test]
    fn reconfigured_hierarchy_roundtrips_through_json() {
        let mut h = HierarchyBuilder::grid(root_rect(), 1, 2).build().unwrap();
        let victim = h.leaves().next().unwrap().id;
        let new_id = h.split_leaf(victim).unwrap();
        h.retire_leaf(new_id).unwrap();
        let crashed_root = h.root();
        let _ = crashed_root;
        h.fail_over_root().unwrap();
        let back = Hierarchy::from_json(&h.to_json()).unwrap();
        assert_eq!(h, back, "retired markers and the moved root must survive JSON");
        assert_eq!(back.root(), h.root());
        assert!(back.is_retired(new_id));
    }

    #[test]
    fn rejected_mutation_leaves_the_tree_untouched() {
        let mut h = HierarchyBuilder::grid(root_rect(), 1, 2).build().unwrap();
        let before = h.clone();
        assert!(h.split_leaf(ServerId(0)).is_err());
        assert!(h.retire_leaf(ServerId(99)).is_err());
        assert_eq!(h, before);
    }

    #[test]
    fn deep_tree_stats() {
        let h = HierarchyBuilder::grid(root_rect(), 3, 2).build().unwrap();
        assert_eq!(h.len(), 1 + 4 + 16 + 64);
        assert_eq!(h.leaves().count(), 64);
        assert_eq!(h.height(), 3);
        // Every interior point routes to a leaf whose area contains it.
        for &(x, y) in &[(1.0, 1.0), (999.0, 999.0), (500.0, 500.0), (123.4, 876.5)] {
            let p = Point::new(x, y);
            let leaf = h.leaf_for(p).unwrap();
            assert!(h.server(leaf).contains(p));
        }
    }
}
