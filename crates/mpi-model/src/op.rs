//! MPI reduction operations.
//!
//! Predefined operations (`MPI_SUM`, `MPI_MAX`, ...) are pure functions of the element
//! type, so they can be described portably and replayed at restart with no extra
//! information. User-defined operations (`MPI_Op_create`) are the interesting case for
//! checkpointing: the function itself lives in the *upper half* (application memory,
//! which MANA checkpoints), so MANA only needs to remember the registration — the
//! function id and commutativity flag — and re-register it against the fresh lower
//! half at restart. That is exactly what [`OpDescriptor`] captures.

use crate::datatype::PrimitiveType;
use crate::error::{MpiError, MpiResult};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// The predefined reduction operations modelled here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PredefinedOp {
    /// `MPI_SUM`
    Sum,
    /// `MPI_PROD`
    Prod,
    /// `MPI_MAX`
    Max,
    /// `MPI_MIN`
    Min,
    /// `MPI_LAND`
    LogicalAnd,
    /// `MPI_LOR`
    LogicalOr,
    /// `MPI_BAND`
    BitwiseAnd,
    /// `MPI_BOR`
    BitwiseOr,
    /// `MPI_MAXLOC` (operates on value/index pairs)
    MaxLoc,
    /// `MPI_MINLOC` (operates on value/index pairs)
    MinLoc,
}

impl PredefinedOp {
    /// All predefined ops in a stable order (used by implementations' constant tables).
    pub const ALL: [PredefinedOp; 10] = [
        PredefinedOp::Sum,
        PredefinedOp::Prod,
        PredefinedOp::Max,
        PredefinedOp::Min,
        PredefinedOp::LogicalAnd,
        PredefinedOp::LogicalOr,
        PredefinedOp::BitwiseAnd,
        PredefinedOp::BitwiseOr,
        PredefinedOp::MaxLoc,
        PredefinedOp::MinLoc,
    ];

    /// Stable index of this op in [`PredefinedOp::ALL`].
    #[expect(
        clippy::expect_used,
        reason = "provable invariant — the table enumerates every variant; the unit test below locks the bijection"
    )]
    pub fn index(self) -> usize {
        PredefinedOp::ALL
            .iter()
            .position(|&o| o == self)
            .expect("every op is in ALL")
    }

    /// MPI constant name of this op.
    pub(crate) fn mpi_name(self) -> &'static str {
        match self {
            PredefinedOp::Sum => "MPI_SUM",
            PredefinedOp::Prod => "MPI_PROD",
            PredefinedOp::Max => "MPI_MAX",
            PredefinedOp::Min => "MPI_MIN",
            PredefinedOp::LogicalAnd => "MPI_LAND",
            PredefinedOp::LogicalOr => "MPI_LOR",
            PredefinedOp::BitwiseAnd => "MPI_BAND",
            PredefinedOp::BitwiseOr => "MPI_BOR",
            PredefinedOp::MaxLoc => "MPI_MAXLOC",
            PredefinedOp::MinLoc => "MPI_MINLOC",
        }
    }
}

/// Signature of a user-defined reduction function: `(inout, incoming, element_type)`.
///
/// `inout` is updated in place, combining it with `incoming` element-wise, matching the
/// semantics of the C callback passed to `MPI_Op_create`.
pub(crate) type UserFunction = Arc<dyn Fn(&mut [u8], &[u8], PrimitiveType) + Send + Sync>;

/// Registry of user-defined reduction functions.
///
/// The registry lives in the *upper half*: it is part of the application/MANA state and
/// therefore survives a checkpoint. Lower halves only ever see the numeric function id,
/// so re-registering after restart is a pure table operation.
#[derive(Default, Clone)]
pub struct UserFunctionRegistry {
    functions: HashMap<u64, (UserFunction, bool)>,
}

impl UserFunctionRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a user function under `func_id` with the given commutativity.
    /// Re-registering the same id replaces the previous function (as after a restart).
    pub fn register(&mut self, func_id: u64, commutative: bool, f: UserFunction) {
        self.functions.insert(func_id, (f, commutative));
    }

    /// Look up a registered function.
    pub fn get(&self, func_id: u64) -> Option<(&UserFunction, bool)> {
        self.functions.get(&func_id).map(|(f, c)| (f, *c))
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

impl std::fmt::Debug for UserFunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserFunctionRegistry")
            .field("functions", &self.functions.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Portable description of an `MPI_Op`, as stored in MANA's virtual-id descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpDescriptor {
    /// One of the predefined operations.
    Predefined(PredefinedOp),
    /// A user operation created with `MPI_Op_create`.
    User {
        /// Upper-half function id (key into the [`UserFunctionRegistry`]).
        func_id: u64,
        /// Whether the user declared the operation commutative.
        commutative: bool,
    },
}

macro_rules! reduce_numeric {
    ($ty:ty, $inout:expr, $incoming:expr, $op:expr) => {{
        const WIDTH: usize = std::mem::size_of::<$ty>();
        for (dst, src) in $inout
            .as_chunks_mut::<WIDTH>()
            .0
            .iter_mut()
            .zip($incoming.as_chunks::<WIDTH>().0)
        {
            let a = <$ty>::from_le_bytes(*dst);
            let b = <$ty>::from_le_bytes(*src);
            let r: $ty = match $op {
                PredefinedOp::Sum => a.wrapping_add_model(b),
                PredefinedOp::Prod => a.wrapping_mul_model(b),
                PredefinedOp::Max => {
                    if a >= b {
                        a
                    } else {
                        b
                    }
                }
                PredefinedOp::Min => {
                    if a <= b {
                        a
                    } else {
                        b
                    }
                }
                PredefinedOp::LogicalAnd => {
                    if a != <$ty>::zero_model() && b != <$ty>::zero_model() {
                        <$ty>::one_model()
                    } else {
                        <$ty>::zero_model()
                    }
                }
                PredefinedOp::LogicalOr => {
                    if a != <$ty>::zero_model() || b != <$ty>::zero_model() {
                        <$ty>::one_model()
                    } else {
                        <$ty>::zero_model()
                    }
                }
                PredefinedOp::BitwiseAnd => a.band_model(b),
                PredefinedOp::BitwiseOr => a.bor_model(b),
                PredefinedOp::MaxLoc | PredefinedOp::MinLoc => {
                    return Err(MpiError::Internal(
                        "MAXLOC/MINLOC require MPI_DOUBLE_INT pairs".to_string(),
                    ))
                }
            };
            *dst = r.to_le_bytes();
        }
        Ok(())
    }};
}

/// Tiny numeric-model trait so the reduction macro can treat integers and floats
/// uniformly (floats have no wrapping arithmetic or bitwise ops in MPI; attempting
/// a bitwise op on a float type is an application error we surface as `Internal`).
trait NumericModel: Copy + PartialEq + PartialOrd {
    fn wrapping_add_model(self, other: Self) -> Self;
    fn wrapping_mul_model(self, other: Self) -> Self;
    fn band_model(self, other: Self) -> Self;
    fn bor_model(self, other: Self) -> Self;
    fn zero_model() -> Self;
    fn one_model() -> Self;
}

macro_rules! impl_numeric_int {
    ($($ty:ty),*) => {$(
        impl NumericModel for $ty {
            fn wrapping_add_model(self, other: Self) -> Self { self.wrapping_add(other) }
            fn wrapping_mul_model(self, other: Self) -> Self { self.wrapping_mul(other) }
            fn band_model(self, other: Self) -> Self { self & other }
            fn bor_model(self, other: Self) -> Self { self | other }
            fn zero_model() -> Self { 0 }
            fn one_model() -> Self { 1 }
        }
    )*};
}

impl_numeric_int!(i8, u8, i32, u32, i64, u64);

macro_rules! impl_numeric_float {
    ($($ty:ty),*) => {$(
        impl NumericModel for $ty {
            fn wrapping_add_model(self, other: Self) -> Self { self + other }
            fn wrapping_mul_model(self, other: Self) -> Self { self * other }
            // Bitwise ops on floating types are erroneous in MPI and
            // apply_predefined rejects them before dispatch; on the bits they
            // are still total, so no panic hides in this macro body.
            fn band_model(self, other: Self) -> Self { <$ty>::from_bits(self.to_bits() & other.to_bits()) }
            fn bor_model(self, other: Self) -> Self { <$ty>::from_bits(self.to_bits() | other.to_bits()) }
            fn zero_model() -> Self { 0.0 }
            fn one_model() -> Self { 1.0 }
        }
    )*};
}

impl_numeric_float!(f32, f64);

/// Apply a predefined reduction element-wise: `inout[i] = op(inout[i], incoming[i])`.
///
/// Both buffers must contain whole elements of `element_type` and have equal length.
/// This is the kernel every simulated implementation's `MPI_Reduce`/`MPI_Allreduce`
/// uses once the fabric has delivered contributions.
pub(crate) fn apply_predefined(
    op: PredefinedOp,
    element_type: PrimitiveType,
    inout: &mut [u8],
    incoming: &[u8],
) -> MpiResult<()> {
    if inout.len() != incoming.len() {
        return Err(MpiError::Internal(format!(
            "reduction buffer length mismatch: {} vs {}",
            inout.len(),
            incoming.len()
        )));
    }
    if !inout.len().is_multiple_of(element_type.size()) {
        return Err(MpiError::Internal(format!(
            "reduction buffer length {} is not a multiple of element size {}",
            inout.len(),
            element_type.size()
        )));
    }
    let bitwise = matches!(op, PredefinedOp::BitwiseAnd | PredefinedOp::BitwiseOr);
    match element_type {
        PrimitiveType::Char | PrimitiveType::Int8 => reduce_numeric!(i8, inout, incoming, op),
        PrimitiveType::Byte | PrimitiveType::Bool => reduce_numeric!(u8, inout, incoming, op),
        PrimitiveType::Int => reduce_numeric!(i32, inout, incoming, op),
        PrimitiveType::Unsigned => reduce_numeric!(u32, inout, incoming, op),
        PrimitiveType::Long => reduce_numeric!(i64, inout, incoming, op),
        PrimitiveType::UnsignedLong => reduce_numeric!(u64, inout, incoming, op),
        PrimitiveType::Float => {
            if bitwise {
                return Err(MpiError::Internal("bitwise reduction on MPI_FLOAT".into()));
            }
            reduce_numeric!(f32, inout, incoming, op)
        }
        PrimitiveType::Double => {
            if bitwise {
                return Err(MpiError::Internal("bitwise reduction on MPI_DOUBLE".into()));
            }
            reduce_numeric!(f64, inout, incoming, op)
        }
        PrimitiveType::DoubleInt => apply_loc(op, inout, incoming),
    }
}

/// MAXLOC/MINLOC reduction on `MPI_DOUBLE_INT` pairs (8-byte double + 4-byte index).
fn apply_loc(op: PredefinedOp, inout: &mut [u8], incoming: &[u8]) -> MpiResult<()> {
    if !matches!(op, PredefinedOp::MaxLoc | PredefinedOp::MinLoc) {
        return Err(MpiError::Internal(format!(
            "{} is not defined on MPI_DOUBLE_INT in this model",
            op.mpi_name()
        )));
    }
    const PAIR: usize = 12;
    for (dst, src) in inout
        .chunks_exact_mut(PAIR)
        .zip(incoming.chunks_exact(PAIR))
    {
        #[expect(
            clippy::unwrap_used,
            reason = "provable invariant — chunks_exact(12) yields exactly 12-byte slices"
        )]
        let a_val = f64::from_le_bytes(dst[..8].try_into().unwrap());
        #[expect(
            clippy::unwrap_used,
            reason = "provable invariant — chunks_exact(12) yields exactly 12-byte slices"
        )]
        let a_idx = i32::from_le_bytes(dst[8..12].try_into().unwrap());
        #[expect(
            clippy::unwrap_used,
            reason = "provable invariant — chunks_exact(12) yields exactly 12-byte slices"
        )]
        let b_val = f64::from_le_bytes(src[..8].try_into().unwrap());
        #[expect(
            clippy::unwrap_used,
            reason = "provable invariant — chunks_exact(12) yields exactly 12-byte slices"
        )]
        let b_idx = i32::from_le_bytes(src[8..12].try_into().unwrap());
        let take_b = match op {
            PredefinedOp::MaxLoc => b_val > a_val || (b_val == a_val && b_idx < a_idx),
            PredefinedOp::MinLoc => b_val < a_val || (b_val == a_val && b_idx < a_idx),
            #[expect(
                clippy::unreachable,
                reason = "caller invariant — this helper is dispatched only for MaxLoc/MinLoc"
            )]
            _ => unreachable!(),
        };
        if take_b {
            dst[..8].copy_from_slice(&b_val.to_le_bytes());
            dst[8..12].copy_from_slice(&b_idx.to_le_bytes());
        }
    }
    Ok(())
}

/// Apply an [`OpDescriptor`] — predefined or user-defined — using `registry` to resolve
/// user function ids.
pub fn apply_op(
    op: &OpDescriptor,
    element_type: PrimitiveType,
    inout: &mut [u8],
    incoming: &[u8],
    registry: &UserFunctionRegistry,
) -> MpiResult<()> {
    match op {
        OpDescriptor::Predefined(p) => apply_predefined(*p, element_type, inout, incoming),
        OpDescriptor::User { func_id, .. } => {
            let (f, _) = registry
                .get(*func_id)
                .ok_or(MpiError::UnknownUserFunction(*func_id))?;
            f(inout, incoming, element_type);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn as_f64_vec(bytes: &[u8]) -> Vec<f64> {
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    fn f64_bytes(v: &[f64]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn i32_bytes(v: &[i32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn sum_doubles() {
        let mut a = f64_bytes(&[1.0, 2.0, 3.0]);
        let b = f64_bytes(&[10.0, 20.0, 30.0]);
        apply_predefined(PredefinedOp::Sum, PrimitiveType::Double, &mut a, &b).unwrap();
        assert_eq!(as_f64_vec(&a), vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn max_min_ints() {
        let mut a = i32_bytes(&[1, 50, -3]);
        let b = i32_bytes(&[10, 2, -30]);
        apply_predefined(PredefinedOp::Max, PrimitiveType::Int, &mut a, &b).unwrap();
        let vals: Vec<i32> = a
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![10, 50, -3]);

        let mut a = i32_bytes(&[1, 50, -3]);
        apply_predefined(PredefinedOp::Min, PrimitiveType::Int, &mut a, &b).unwrap();
        let vals: Vec<i32> = a
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![1, 2, -30]);
    }

    #[test]
    fn bitwise_on_float_is_error() {
        let mut a = f64_bytes(&[1.0]);
        let b = f64_bytes(&[2.0]);
        assert!(
            apply_predefined(PredefinedOp::BitwiseAnd, PrimitiveType::Double, &mut a, &b).is_err()
        );
    }

    #[test]
    fn logical_ops_on_ints() {
        let mut a = i32_bytes(&[0, 5]);
        let b = i32_bytes(&[3, 0]);
        apply_predefined(PredefinedOp::LogicalAnd, PrimitiveType::Int, &mut a, &b).unwrap();
        let vals: Vec<i32> = a
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![0, 0]);

        let mut a = i32_bytes(&[0, 5]);
        apply_predefined(PredefinedOp::LogicalOr, PrimitiveType::Int, &mut a, &b).unwrap();
        let vals: Vec<i32> = a
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![1, 1]);
    }

    #[test]
    fn maxloc_pairs() {
        // pairs (value, index)
        let mut a: Vec<u8> = vec![];
        a.extend(5.0f64.to_le_bytes());
        a.extend(7i32.to_le_bytes());
        let mut b: Vec<u8> = vec![];
        b.extend(5.0f64.to_le_bytes());
        b.extend(3i32.to_le_bytes());
        apply_predefined(PredefinedOp::MaxLoc, PrimitiveType::DoubleInt, &mut a, &b).unwrap();
        // equal values: lower index wins
        assert_eq!(i32::from_le_bytes(a[8..12].try_into().unwrap()), 3);
    }

    #[test]
    fn length_mismatch_is_error() {
        let mut a = vec![0u8; 8];
        let b = vec![0u8; 16];
        assert!(apply_predefined(PredefinedOp::Sum, PrimitiveType::Double, &mut a, &b).is_err());
        let mut c = vec![0u8; 6];
        let d = vec![0u8; 6];
        assert!(apply_predefined(PredefinedOp::Sum, PrimitiveType::Double, &mut c, &d).is_err());
    }

    #[test]
    fn user_function_registry() {
        let mut reg = UserFunctionRegistry::new();
        assert!(reg.is_empty());
        reg.register(
            42,
            true,
            Arc::new(|inout, incoming, ty| {
                assert_eq!(ty, PrimitiveType::Int);
                for (d, s) in inout.chunks_exact_mut(4).zip(incoming.chunks_exact(4)) {
                    let a = i32::from_le_bytes(d.try_into().unwrap());
                    let b = i32::from_le_bytes(s.try_into().unwrap());
                    d.copy_from_slice(&(a * 10 + b).to_le_bytes());
                }
            }),
        );
        assert_eq!(reg.len(), 1);
        let op = OpDescriptor::User {
            func_id: 42,
            commutative: true,
        };
        let mut a = i32_bytes(&[1]);
        let b = i32_bytes(&[2]);
        apply_op(&op, PrimitiveType::Int, &mut a, &b, &reg).unwrap();
        assert_eq!(i32::from_le_bytes(a[..4].try_into().unwrap()), 12);

        let missing = OpDescriptor::User {
            func_id: 99,
            commutative: true,
        };
        assert_eq!(
            apply_op(&missing, PrimitiveType::Int, &mut a, &b, &reg),
            Err(MpiError::UnknownUserFunction(99))
        );
    }

    #[test]
    fn op_index_roundtrip() {
        for op in PredefinedOp::ALL {
            assert_eq!(PredefinedOp::ALL[op.index()], op);
        }
    }
}
