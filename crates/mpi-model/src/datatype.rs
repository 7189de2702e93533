//! MPI datatype model: primitive types, derived-type construction, and the
//! envelope/contents decode surface that MANA relies on to reconstruct datatypes at
//! restart time (paper §5, category 2: `MPI_Type_get_envelope`, `MPI_Type_get_contents`).
//!
//! A datatype in this model is a tree: leaves are [`PrimitiveType`]s and interior nodes
//! record the constructor (`combiner`) and its integer arguments, mirroring how real
//! implementations expose derived types through `MPI_Type_get_contents`. MANA never
//! needs to look inside the lower half's datatype objects — it only needs this portable
//! description, which is exactly what the new virtual-id descriptors cache.

use crate::error::{MpiError, MpiResult};
use serde::{Deserialize, Serialize};

/// The MPI predefined (primitive) datatypes modelled in this reproduction.
///
/// The list covers every primitive used by the proxy applications and the benchmarks;
/// it is not the full MPI-3 roster, but adding a variant is purely additive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PrimitiveType {
    /// `MPI_CHAR`
    Char,
    /// `MPI_INT8_T` — shares a representation with `Char` in ExaMPI (paper §4.3).
    Int8,
    /// `MPI_UINT8_T` / `MPI_BYTE`
    Byte,
    /// `MPI_INT` (32-bit)
    Int,
    /// `MPI_UNSIGNED`
    Unsigned,
    /// `MPI_LONG` / `MPI_INT64_T`
    Long,
    /// `MPI_UNSIGNED_LONG` / `MPI_UINT64_T`
    UnsignedLong,
    /// `MPI_FLOAT`
    Float,
    /// `MPI_DOUBLE`
    Double,
    /// `MPI_C_BOOL`
    Bool,
    /// `MPI_DOUBLE_INT` (value + index pair used by `MPI_MAXLOC`/`MPI_MINLOC`)
    DoubleInt,
}

impl PrimitiveType {
    /// All primitives, in a stable order. The position in this array doubles as the
    /// "named datatype index" used by the simulated implementations' constant tables.
    pub const ALL: [PrimitiveType; 11] = [
        PrimitiveType::Char,
        PrimitiveType::Int8,
        PrimitiveType::Byte,
        PrimitiveType::Int,
        PrimitiveType::Unsigned,
        PrimitiveType::Long,
        PrimitiveType::UnsignedLong,
        PrimitiveType::Float,
        PrimitiveType::Double,
        PrimitiveType::Bool,
        PrimitiveType::DoubleInt,
    ];

    /// Size in bytes of one element of this primitive type.
    pub fn size(self) -> usize {
        match self {
            PrimitiveType::Char
            | PrimitiveType::Int8
            | PrimitiveType::Byte
            | PrimitiveType::Bool => 1,
            PrimitiveType::Int | PrimitiveType::Unsigned | PrimitiveType::Float => 4,
            PrimitiveType::Long | PrimitiveType::UnsignedLong | PrimitiveType::Double => 8,
            PrimitiveType::DoubleInt => 12,
        }
    }

    /// Stable index of this primitive in [`PrimitiveType::ALL`].
    #[expect(
        clippy::expect_used,
        reason = "provable invariant — the table enumerates every variant; the unit test below locks the bijection"
    )]
    pub fn index(self) -> usize {
        PrimitiveType::ALL
            .iter()
            .position(|&p| p == self)
            .expect("every primitive is in ALL")
    }

    /// The MPI name of this primitive (`MPI_INT`, ...).
    pub(crate) fn mpi_name(self) -> &'static str {
        match self {
            PrimitiveType::Char => "MPI_CHAR",
            PrimitiveType::Int8 => "MPI_INT8_T",
            PrimitiveType::Byte => "MPI_BYTE",
            PrimitiveType::Int => "MPI_INT",
            PrimitiveType::Unsigned => "MPI_UNSIGNED",
            PrimitiveType::Long => "MPI_LONG",
            PrimitiveType::UnsignedLong => "MPI_UNSIGNED_LONG",
            PrimitiveType::Float => "MPI_FLOAT",
            PrimitiveType::Double => "MPI_DOUBLE",
            PrimitiveType::Bool => "MPI_C_BOOL",
            PrimitiveType::DoubleInt => "MPI_DOUBLE_INT",
        }
    }
}

/// The constructor that produced a derived datatype, as reported by
/// `MPI_Type_get_envelope` (`MPI_COMBINER_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeCombiner {
    /// A predefined (named) datatype; has no contents to decode.
    Named,
    /// `MPI_Type_dup`
    Dup,
    /// `MPI_Type_contiguous(count, oldtype)`
    Contiguous,
    /// `MPI_Type_vector(count, blocklength, stride, oldtype)`
    Vector,
    /// `MPI_Type_indexed(count, blocklengths[], displacements[], oldtype)`
    Indexed,
    /// `MPI_Type_create_struct(count, blocklengths[], displacements[], types[])`
    Struct,
}

/// The result of `MPI_Type_get_envelope`: how many integers, addresses and datatypes
/// `MPI_Type_get_contents` will return, and which combiner built the type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeEnvelope {
    /// Number of integer arguments in the contents.
    pub(crate) num_integers: usize,
    /// Number of address arguments in the contents.
    pub(crate) num_addresses: usize,
    /// Number of inner datatypes in the contents.
    pub(crate) num_datatypes: usize,
    /// The combiner that constructed the type.
    pub combiner: TypeCombiner,
}

/// The result of `MPI_Type_get_contents`: the constructor arguments, with inner
/// datatypes given as portable [`TypeDescriptor`]s rather than handles so the record is
/// self-contained across a checkpoint/restart boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeContents {
    /// Integer arguments (counts, block lengths, strides) in constructor order.
    pub integers: Vec<i64>,
    /// Address (byte displacement) arguments in constructor order.
    pub addresses: Vec<i64>,
    /// Inner datatypes, in constructor order.
    pub datatypes: Vec<TypeDescriptor>,
}

/// A portable, implementation-independent description of an MPI datatype.
///
/// This is what MANA's virtual-id descriptor stores for each datatype the application
/// creates, and what the restart coordinator replays to rebuild a semantically
/// equivalent datatype in the fresh lower half.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TypeDescriptor {
    /// A predefined type.
    Primitive(PrimitiveType),
    /// `MPI_Type_dup(inner)`.
    Dup(Box<TypeDescriptor>),
    /// `MPI_Type_contiguous(count, inner)`.
    Contiguous {
        /// Number of repetitions of the inner type.
        count: usize,
        /// The replicated type.
        inner: Box<TypeDescriptor>,
    },
    /// `MPI_Type_vector(count, block_length, stride, inner)`.
    Vector {
        /// Number of blocks.
        count: usize,
        /// Elements of `inner` per block.
        block_length: usize,
        /// Stride between block starts, in elements of `inner`.
        stride: i64,
        /// The element type.
        inner: Box<TypeDescriptor>,
    },
    /// `MPI_Type_indexed(block_lengths, displacements, inner)`.
    Indexed {
        /// Elements of `inner` in each block.
        block_lengths: Vec<usize>,
        /// Displacement of each block, in elements of `inner`.
        displacements: Vec<i64>,
        /// The element type.
        inner: Box<TypeDescriptor>,
    },
    /// `MPI_Type_create_struct(block_lengths, byte_displacements, types)`.
    Struct {
        /// Elements of the corresponding member type in each block.
        block_lengths: Vec<usize>,
        /// Byte displacement of each block.
        byte_displacements: Vec<i64>,
        /// Member types.
        types: Vec<TypeDescriptor>,
    },
}

impl TypeDescriptor {
    /// Number of *significant* bytes one element of this datatype describes
    /// (the MPI "size", ignoring gaps introduced by strides/displacements).
    pub fn size(&self) -> usize {
        match self {
            TypeDescriptor::Primitive(p) => p.size(),
            TypeDescriptor::Dup(inner) => inner.size(),
            TypeDescriptor::Contiguous { count, inner } => count * inner.size(),
            TypeDescriptor::Vector {
                count,
                block_length,
                inner,
                ..
            } => count * block_length * inner.size(),
            TypeDescriptor::Indexed {
                block_lengths,
                inner,
                ..
            } => block_lengths.iter().sum::<usize>() * inner.size(),
            TypeDescriptor::Struct {
                block_lengths,
                types,
                ..
            } => block_lengths
                .iter()
                .zip(types.iter())
                .map(|(len, ty)| len * ty.size())
                .sum(),
        }
    }

    /// Depth of the constructor tree (a primitive has depth 1). Useful for tests and
    /// for the record-replay cost model.
    pub fn depth(&self) -> usize {
        match self {
            TypeDescriptor::Primitive(_) => 1,
            TypeDescriptor::Dup(inner)
            | TypeDescriptor::Contiguous { inner, .. }
            | TypeDescriptor::Vector { inner, .. }
            | TypeDescriptor::Indexed { inner, .. } => 1 + inner.depth(),
            TypeDescriptor::Struct { types, .. } => {
                1 + types.iter().map(|t| t.depth()).max().unwrap_or(0)
            }
        }
    }

    /// The envelope `MPI_Type_get_envelope` would report for this type.
    pub fn envelope(&self) -> TypeEnvelope {
        match self {
            TypeDescriptor::Primitive(_) => TypeEnvelope {
                num_integers: 0,
                num_addresses: 0,
                num_datatypes: 0,
                combiner: TypeCombiner::Named,
            },
            TypeDescriptor::Dup(_) => TypeEnvelope {
                num_integers: 0,
                num_addresses: 0,
                num_datatypes: 1,
                combiner: TypeCombiner::Dup,
            },
            TypeDescriptor::Contiguous { .. } => TypeEnvelope {
                num_integers: 1,
                num_addresses: 0,
                num_datatypes: 1,
                combiner: TypeCombiner::Contiguous,
            },
            TypeDescriptor::Vector { .. } => TypeEnvelope {
                num_integers: 3,
                num_addresses: 0,
                num_datatypes: 1,
                combiner: TypeCombiner::Vector,
            },
            TypeDescriptor::Indexed { block_lengths, .. } => TypeEnvelope {
                num_integers: 1 + 2 * block_lengths.len(),
                num_addresses: 0,
                num_datatypes: 1,
                combiner: TypeCombiner::Indexed,
            },
            TypeDescriptor::Struct { block_lengths, .. } => TypeEnvelope {
                num_integers: 1 + block_lengths.len(),
                num_addresses: block_lengths.len(),
                num_datatypes: block_lengths.len(),
                combiner: TypeCombiner::Struct,
            },
        }
    }

    /// The contents `MPI_Type_get_contents` would report for this type.
    ///
    /// Returns an error for named types, matching MPI semantics (calling
    /// `MPI_Type_get_contents` on a predefined datatype is erroneous).
    pub fn contents(&self) -> MpiResult<TypeContents> {
        match self {
            TypeDescriptor::Primitive(_) => Err(MpiError::Internal(
                "MPI_Type_get_contents is invalid on a named datatype".to_string(),
            )),
            TypeDescriptor::Dup(inner) => Ok(TypeContents {
                integers: vec![],
                addresses: vec![],
                datatypes: vec![(**inner).clone()],
            }),
            TypeDescriptor::Contiguous { count, inner } => Ok(TypeContents {
                integers: vec![*count as i64],
                addresses: vec![],
                datatypes: vec![(**inner).clone()],
            }),
            TypeDescriptor::Vector {
                count,
                block_length,
                stride,
                inner,
            } => Ok(TypeContents {
                integers: vec![*count as i64, *block_length as i64, *stride],
                addresses: vec![],
                datatypes: vec![(**inner).clone()],
            }),
            TypeDescriptor::Indexed {
                block_lengths,
                displacements,
                inner,
            } => {
                let mut integers = Vec::with_capacity(1 + 2 * block_lengths.len());
                integers.push(block_lengths.len() as i64);
                integers.extend(block_lengths.iter().map(|&b| b as i64));
                integers.extend(displacements.iter().copied());
                Ok(TypeContents {
                    integers,
                    addresses: vec![],
                    datatypes: vec![(**inner).clone()],
                })
            }
            TypeDescriptor::Struct {
                block_lengths,
                byte_displacements,
                types,
            } => {
                let mut integers = Vec::with_capacity(1 + block_lengths.len());
                integers.push(block_lengths.len() as i64);
                integers.extend(block_lengths.iter().map(|&b| b as i64));
                Ok(TypeContents {
                    integers,
                    addresses: byte_displacements.clone(),
                    datatypes: types.clone(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rebuild a descriptor from its envelope and contents: the decoding oracle the
    /// round-trip tests hold `envelope` and `contents` to.
    ///
    /// `named` supplies the descriptor for the `Named` combiner (which carries no
    /// contents of its own).
    fn from_envelope_contents(
        envelope: TypeEnvelope,
        contents: Option<&TypeContents>,
        named: Option<PrimitiveType>,
    ) -> MpiResult<TypeDescriptor> {
        match envelope.combiner {
            TypeCombiner::Named => named
                .map(TypeDescriptor::Primitive)
                .ok_or_else(|| MpiError::Internal("named combiner requires a primitive".into())),
            TypeCombiner::Dup => {
                let c = contents.ok_or_else(|| MpiError::Internal("dup needs contents".into()))?;
                let inner =
                    c.datatypes.first().cloned().ok_or_else(|| {
                        MpiError::Internal("dup contents missing datatype".into())
                    })?;
                Ok(TypeDescriptor::Dup(Box::new(inner)))
            }
            TypeCombiner::Contiguous => {
                let c = contents
                    .ok_or_else(|| MpiError::Internal("contiguous needs contents".into()))?;
                let count = *c
                    .integers
                    .first()
                    .ok_or_else(|| MpiError::Internal("contiguous missing count".into()))?;
                if count < 0 {
                    return Err(MpiError::InvalidCount(count));
                }
                let inner = c
                    .datatypes
                    .first()
                    .cloned()
                    .ok_or_else(|| MpiError::Internal("contiguous missing datatype".into()))?;
                Ok(TypeDescriptor::Contiguous {
                    count: count as usize,
                    inner: Box::new(inner),
                })
            }
            TypeCombiner::Vector => {
                let c =
                    contents.ok_or_else(|| MpiError::Internal("vector needs contents".into()))?;
                if c.integers.len() < 3 {
                    return Err(MpiError::Internal("vector contents too short".into()));
                }
                let (count, block_length, stride) = (c.integers[0], c.integers[1], c.integers[2]);
                if count < 0 {
                    return Err(MpiError::InvalidCount(count));
                }
                if block_length < 0 {
                    return Err(MpiError::InvalidCount(block_length));
                }
                let inner = c
                    .datatypes
                    .first()
                    .cloned()
                    .ok_or_else(|| MpiError::Internal("vector missing datatype".into()))?;
                Ok(TypeDescriptor::Vector {
                    count: count as usize,
                    block_length: block_length as usize,
                    stride,
                    inner: Box::new(inner),
                })
            }
            TypeCombiner::Indexed => {
                let c =
                    contents.ok_or_else(|| MpiError::Internal("indexed needs contents".into()))?;
                let n = *c
                    .integers
                    .first()
                    .ok_or_else(|| MpiError::Internal("indexed missing count".into()))?
                    as usize;
                if c.integers.len() < 1 + 2 * n {
                    return Err(MpiError::Internal("indexed contents too short".into()));
                }
                let block_lengths = c.integers[1..1 + n].iter().map(|&b| b as usize).collect();
                let displacements = c.integers[1 + n..1 + 2 * n].to_vec();
                let inner = c
                    .datatypes
                    .first()
                    .cloned()
                    .ok_or_else(|| MpiError::Internal("indexed missing datatype".into()))?;
                Ok(TypeDescriptor::Indexed {
                    block_lengths,
                    displacements,
                    inner: Box::new(inner),
                })
            }
            TypeCombiner::Struct => {
                let c =
                    contents.ok_or_else(|| MpiError::Internal("struct needs contents".into()))?;
                let n = *c
                    .integers
                    .first()
                    .ok_or_else(|| MpiError::Internal("struct missing count".into()))?
                    as usize;
                if c.integers.len() < 1 + n || c.addresses.len() < n || c.datatypes.len() < n {
                    return Err(MpiError::Internal("struct contents too short".into()));
                }
                Ok(TypeDescriptor::Struct {
                    block_lengths: c.integers[1..1 + n].iter().map(|&b| b as usize).collect(),
                    byte_displacements: c.addresses[..n].to_vec(),
                    types: c.datatypes[..n].to_vec(),
                })
            }
        }
    }

    fn vec_of_doubles() -> TypeDescriptor {
        TypeDescriptor::Vector {
            count: 4,
            block_length: 2,
            stride: 3,
            inner: Box::new(TypeDescriptor::Primitive(PrimitiveType::Double)),
        }
    }

    #[test]
    fn primitive_sizes() {
        assert_eq!(PrimitiveType::Double.size(), 8);
        assert_eq!(PrimitiveType::Int.size(), 4);
        assert_eq!(PrimitiveType::Char.size(), 1);
        assert_eq!(PrimitiveType::DoubleInt.size(), 12);
    }

    #[test]
    fn primitive_index_roundtrip() {
        for p in PrimitiveType::ALL {
            assert_eq!(PrimitiveType::ALL[p.index()], p);
        }
    }

    #[test]
    fn contiguous_size_and_extent() {
        let t = TypeDescriptor::Contiguous {
            count: 10,
            inner: Box::new(TypeDescriptor::Primitive(PrimitiveType::Int)),
        };
        assert_eq!(t.size(), 40);
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn vector_size_vs_extent() {
        let t = vec_of_doubles();
        // size counts only the 4*2 doubles
        assert_eq!(t.size(), 64);
    }

    #[test]
    fn struct_size() {
        let t = TypeDescriptor::Struct {
            block_lengths: vec![1, 3],
            byte_displacements: vec![0, 8],
            types: vec![
                TypeDescriptor::Primitive(PrimitiveType::Double),
                TypeDescriptor::Primitive(PrimitiveType::Int),
            ],
        };
        assert_eq!(t.size(), 8 + 12);
    }

    #[test]
    fn envelope_matches_combiner() {
        assert_eq!(
            TypeDescriptor::Primitive(PrimitiveType::Int)
                .envelope()
                .combiner,
            TypeCombiner::Named
        );
        assert_eq!(vec_of_doubles().envelope().combiner, TypeCombiner::Vector);
        assert_eq!(vec_of_doubles().envelope().num_integers, 3);
    }

    #[test]
    fn contents_of_named_is_error() {
        assert!(TypeDescriptor::Primitive(PrimitiveType::Int)
            .contents()
            .is_err());
    }

    #[test]
    fn envelope_contents_roundtrip_vector() {
        let t = vec_of_doubles();
        let env = t.envelope();
        let contents = t.contents().unwrap();
        let rebuilt = from_envelope_contents(env, Some(&contents), None).unwrap();
        assert_eq!(rebuilt, t);
    }

    #[test]
    fn envelope_contents_roundtrip_indexed_and_struct() {
        let idx = TypeDescriptor::Indexed {
            block_lengths: vec![1, 2, 3],
            displacements: vec![0, 10, 20],
            inner: Box::new(TypeDescriptor::Primitive(PrimitiveType::Float)),
        };
        let rebuilt =
            from_envelope_contents(idx.envelope(), Some(&idx.contents().unwrap()), None).unwrap();
        assert_eq!(rebuilt, idx);

        let st = TypeDescriptor::Struct {
            block_lengths: vec![2, 1],
            byte_displacements: vec![0, 16],
            types: vec![
                TypeDescriptor::Primitive(PrimitiveType::Double),
                idx.clone(),
            ],
        };
        let rebuilt =
            from_envelope_contents(st.envelope(), Some(&st.contents().unwrap()), None).unwrap();
        assert_eq!(rebuilt, st);
    }

    #[test]
    fn nested_depth() {
        let t = TypeDescriptor::Contiguous {
            count: 2,
            inner: Box::new(vec_of_doubles()),
        };
        assert_eq!(t.depth(), 3);
        assert_eq!(t.size(), 2 * 64);
    }

    #[test]
    fn dup_preserves_size() {
        let t = TypeDescriptor::Dup(Box::new(vec_of_doubles()));
        assert_eq!(t.size(), vec_of_doubles().size());
        assert_eq!(t.envelope().combiner, TypeCombiner::Dup);
        let rebuilt =
            from_envelope_contents(t.envelope(), Some(&t.contents().unwrap()), None).unwrap();
        assert_eq!(rebuilt, t);
    }
}
