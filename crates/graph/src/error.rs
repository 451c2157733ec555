use std::error::Error;
use std::fmt;

/// Errors produced while constructing or validating a [`crate::Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An endpoint index was outside the declared vertex range.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// The number of vertices in the graph under construction.
        n: usize,
    },
    /// A self loop `(u, u)` was added; the routing model assumes simple graphs.
    SelfLoop {
        /// The vertex with the self loop.
        vertex: usize,
    },
    /// An edge weight of zero was supplied; the paper assumes strictly
    /// positive weights (`w : E -> R+`).
    ZeroWeight {
        /// One endpoint of the offending edge.
        u: usize,
        /// The other endpoint of the offending edge.
        v: usize,
    },
    /// An edge weight above [`crate::MAX_WEIGHT`] was supplied; heavier
    /// edges could overflow distance sums.
    WeightTooLarge {
        /// One endpoint of the offending edge.
        u: usize,
        /// The other endpoint of the offending edge.
        v: usize,
        /// The rejected weight.
        weight: crate::Weight,
    },
    /// The graph is not connected but the operation requires connectivity.
    Disconnected,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph with {n} vertices")
            }
            GraphError::SelfLoop { vertex } => write!(f, "self loop at vertex {vertex}"),
            GraphError::ZeroWeight { u, v } => {
                write!(f, "edge ({u}, {v}) has zero weight; weights must be positive")
            }
            GraphError::WeightTooLarge { u, v, weight } => write!(
                f,
                "edge ({u}, {v}) has weight {weight}, above the maximum {}",
                crate::MAX_WEIGHT
            ),
            GraphError::Disconnected => write!(f, "graph is not connected"),
        }
    }
}

impl Error for GraphError {}

// Graph errors can surface from rebuild workers on background threads in
// the serving layer, so `Send + Sync + 'static` is part of the contract —
// checked at compile time, not merely by a test.
const fn assert_send_sync_static<T: Send + Sync + 'static>() {}
const _: () = assert_send_sync_static::<GraphError>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::VertexOutOfRange { vertex: 7, n: 3 };
        assert!(e.to_string().contains("vertex 7"));
        let e = GraphError::SelfLoop { vertex: 2 };
        assert!(e.to_string().contains("self loop"));
        let e = GraphError::ZeroWeight { u: 1, v: 2 };
        assert!(e.to_string().contains("zero weight"));
        let e = GraphError::WeightTooLarge { u: 1, v: 2, weight: 1 << 40 };
        assert!(e.to_string().contains("above the maximum"));
        assert_eq!(GraphError::Disconnected.to_string(), "graph is not connected");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
