//! Addressing: servers and clients.

use std::fmt;

/// Identifier of a location server within one service deployment.
///
/// Server ids are assigned by the hierarchy builder in breadth-first
/// order (the root is always `ServerId(0)`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
)]
pub struct ServerId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of a client of the location service.
///
/// A mobile device usually has both roles — tracked object and client —
/// so a `ClientId` frequently corresponds to a tracked object id, but
/// stationary clients (e.g. a fleet-dispatch console) get their own.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A network-addressable participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// A location server.
    Server(ServerId),
    /// A client / tracked object.
    Client(ClientId),
}

impl Endpoint {
    /// The server id, when this endpoint is a server.
    pub fn as_server(self) -> Option<ServerId> {
        match self {
            Endpoint::Server(id) => Some(id),
            Endpoint::Client(_) => None,
        }
    }
}

impl From<ServerId> for Endpoint {
    fn from(id: ServerId) -> Self {
        Endpoint::Server(id)
    }
}

impl From<ClientId> for Endpoint {
    fn from(id: ClientId) -> Self {
        Endpoint::Client(id)
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Server(id) => write!(f, "{id}"),
            Endpoint::Client(id) => write!(f, "{id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let s: Endpoint = ServerId(3).into();
        assert_eq!(s.as_server(), Some(ServerId(3)));
        let c: Endpoint = ClientId(7).into();
        assert_eq!(c.as_server(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Endpoint::from(ServerId(4)).to_string(), "s4");
        assert_eq!(Endpoint::from(ClientId(11)).to_string(), "c11");
    }

    #[test]
    fn ordering_is_stable() {
        let mut v = [Endpoint::from(ClientId(1)),
            Endpoint::from(ServerId(2)),
            Endpoint::from(ServerId(0))];
        v.sort();
        assert_eq!(v[0], Endpoint::Server(ServerId(0)));
    }
}
