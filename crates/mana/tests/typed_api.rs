//! Satellite coverage for the typed session layer:
//!
//! * encode/decode round trips for every `MpiData` scalar — and a derived-datatype
//!   struct — through a real send/recv on **all four** simulated backends;
//! * typed reductions (including `MAXLOC` on `DoubleInt` pairs);
//! * a checkpoint-restart proof that typed handles stored in the upper half
//!   (`Datatype<f64>`, `Comm`) survive restart exactly like raw `AppHandle`s do
//!   (both forms are stored side by side and compared after the restart).

#![expect(
    clippy::panic,
    clippy::unreachable,
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use job_runtime::{Backend, JobConfig, JobRuntime};
use mana::runtime::AppHandle;
use mana::{Comm, Datatype, Op, Session};
use mpi_model::constants::PredefinedObject;
use mpi_model::datatype::{PrimitiveType, TypeDescriptor};
use mpi_model::error::MpiResult;
use mpi_model::op::PredefinedOp;
use mpi_model::typed::{DoubleInt, MpiData};

/// A derived-datatype struct: three coordinates and a tag, laid out as
/// `MPI_Type_create_struct([3, 1], [0, 24], [MPI_DOUBLE, MPI_UNSIGNED_LONG])`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Particle {
    position: [f64; 3],
    id: u64,
}

impl MpiData for Particle {
    fn type_descriptor() -> TypeDescriptor {
        TypeDescriptor::Struct {
            block_lengths: vec![3, 1],
            byte_displacements: vec![0, 24],
            types: vec![
                TypeDescriptor::Primitive(PrimitiveType::Double),
                TypeDescriptor::Primitive(PrimitiveType::UnsignedLong),
            ],
        }
    }

    fn encode_element(self, out: &mut Vec<u8>) {
        for coordinate in self.position {
            out.extend_from_slice(&coordinate.to_le_bytes());
        }
        out.extend_from_slice(&self.id.to_le_bytes());
    }

    fn decode_element(bytes: &[u8]) -> MpiResult<Self> {
        let mut position = [0.0; 3];
        for (i, coordinate) in position.iter_mut().enumerate() {
            *coordinate = f64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        }
        Ok(Particle {
            position,
            id: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
        })
    }
}

/// Ping one typed payload from rank 0 to rank 1 and assert it arrives intact.
fn ping<T: MpiData + PartialEq + std::fmt::Debug>(
    session: &mut Session,
    payload: &[T],
    tag: i32,
) -> MpiResult<()> {
    let world = session.world()?;
    match session.world_rank() {
        0 => session.send(payload, 1, tag, world)?,
        1 => {
            let (received, status) = session.recv::<T>(payload.len(), 0, tag, world)?;
            assert_eq!(received, payload, "round trip must be lossless");
            assert_eq!(status.count_bytes, payload.len() * T::elem_size());
        }
        _ => unreachable!("two-rank world"),
    }
    session.barrier(world)?;
    Ok(())
}

/// Every scalar `MpiData` type plus the derived `Particle` struct, round-tripped on
/// one backend.
fn roundtrip_all_types(backend: Backend) {
    let runtime = JobRuntime::new(JobConfig::new(2, backend));
    runtime
        .run(|mut session, _ctx| {
            ping::<i8>(&mut session, &[-3, 0, i8::MAX], 1)?;
            ping::<u8>(&mut session, &[0, 1, u8::MAX], 2)?;
            ping::<i32>(&mut session, &[i32::MIN, -1, i32::MAX], 3)?;
            ping::<u32>(&mut session, &[0, 7, u32::MAX], 4)?;
            ping::<i64>(&mut session, &[i64::MIN, 0, i64::MAX], 5)?;
            ping::<u64>(&mut session, &[0, 42, u64::MAX], 6)?;
            ping::<f32>(&mut session, &[-1.5, 0.0, f32::MAX], 7)?;
            ping::<f64>(&mut session, &[1.5e300, -2.25, f64::MIN_POSITIVE], 8)?;
            ping::<bool>(&mut session, &[true, false, true], 9)?;
            ping::<DoubleInt>(
                &mut session,
                &[DoubleInt {
                    value: 3.5,
                    index: 2,
                }],
                10,
            )?;
            ping::<Particle>(
                &mut session,
                &[
                    Particle {
                        position: [1.0, -2.0, 3.5],
                        id: 7,
                    },
                    Particle {
                        position: [0.25, 0.5, 0.75],
                        id: u64::MAX,
                    },
                ],
                11,
            )?;
            // The derived struct datatype is a real committed lower-half type.
            let particle_type = session.datatype::<Particle>()?;
            assert_eq!(session.type_size(particle_type)?, 32);
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{}: {e:?}", backend.name()));
}

/// A derived type implements only the per-element contract and still gets the
/// pre-sized bulk `decode`: one exactly-sized vector, whatever the element count.
#[test]
fn derived_struct_decodes_per_element_into_one_exact_allocation() {
    let particles: Vec<Particle> = (0..1000)
        .map(|i| Particle {
            position: [i as f64, -0.5 * i as f64, 0.25],
            id: i,
        })
        .collect();
    let wire = Particle::encode(&particles);
    assert_eq!(wire.len(), 32_000);
    assert_eq!(Particle::encode_payload(&particles), wire);
    let decoded = Particle::decode(&wire).unwrap();
    assert_eq!(decoded, particles);
    assert_eq!(decoded.capacity(), decoded.len());
    assert!(Particle::decode(&wire[..wire.len() - 1]).is_err());
}

#[test]
fn scalar_and_struct_roundtrips_on_mpich() {
    roundtrip_all_types(Backend::Mpich);
}

#[test]
fn scalar_and_struct_roundtrips_on_craympi() {
    roundtrip_all_types(Backend::CrayMpi);
}

#[test]
fn scalar_and_struct_roundtrips_on_openmpi() {
    roundtrip_all_types(Backend::OpenMpi);
}

#[test]
fn scalar_and_struct_roundtrips_on_exampi() {
    roundtrip_all_types(Backend::ExaMpi);
}

#[test]
fn typed_reductions_including_maxloc() {
    let runtime = JobRuntime::new(JobConfig::new(4, Backend::Mpich));
    runtime
        .run(|mut session, _ctx| {
            let me = session.world_rank();
            let world = session.world()?;
            assert_eq!(session.allreduce(&[me + 1], Op::sum(), world)?[0], 10);
            assert_eq!(session.allreduce(&[me], Op::max(), world)?[0], 3);
            assert_eq!(session.allreduce(&[me as f64], Op::min(), world)?[0], 0.0);
            // MAXLOC over (value, rank) pairs: every rank contributes its own rank as
            // the value, rank 3 must win with index 3.
            let pair = DoubleInt {
                value: me as f64,
                index: me,
            };
            let winner = session.allreduce(&[pair], Op::maxloc(), world)?[0];
            assert_eq!(winner.value, 3.0);
            assert_eq!(winner.index, 3);
            // Typed gather/scatter/bcast round trips.
            let gathered = session.allgather(&[me as u64 * 10], world)?;
            assert_eq!(gathered, vec![0, 10, 20, 30]);
            let mut broadcast = if me == 0 { vec![5i32, 6] } else { vec![0, 0] };
            session.bcast(&mut broadcast, 0, world)?;
            assert_eq!(broadcast, vec![5, 6]);
            let scattered = session.scatter(
                (me == 2).then(|| vec![9i32, 8, 7, 6]).as_deref(),
                1,
                2,
                world,
            )?;
            assert_eq!(scattered, vec![9 - me]);
            Ok(())
        })
        .unwrap();
}

/// The typed layer forwards one-to-one: a CoMD-shaped step (three halo exchanges of
/// 512 doubles, one allreduce) makes exactly as many lower-half crossings through
/// `Session` as through the byte-level `ManaRank` calls it wraps. One rank, so the
/// count is deterministic: every collective registration commits its own round.
#[test]
fn typed_layer_adds_no_crossings() {
    const NEIGHBORS: i32 = 3;
    const STEPS: u64 = 100;
    let halo: Vec<f64> = (0..512).map(|i| (i as f64 * 0.25).sin()).collect();
    let world_of_one = || JobRuntime::new(JobConfig::new(1, Backend::Mpich));

    let halo_raw = halo.clone();
    let raw = world_of_one()
        .run(move |mut session, _ctx| {
            let rank = session.rank_mut();
            for step in 0..STEPS {
                let world = rank.constant(PredefinedObject::CommWorld)?;
                let double = rank.constant(PredefinedObject::Datatype(PrimitiveType::Double))?;
                let sum = rank.constant(PredefinedObject::Op(PredefinedOp::Sum))?;
                for tag in 1..=NEIGHBORS {
                    rank.send(&f64::encode(&halo_raw), double, 0, tag, world)?;
                    let (bytes, _) = rank.recv(double, halo_raw.len() * 8, 0, tag, world)?;
                    f64::decode(&bytes)?;
                }
                let reduced = rank.allreduce(&f64::encode(&[step as f64]), double, sum, world)?;
                assert_eq!(f64::decode(&reduced)?, [step as f64]);
            }
            Ok(rank.crossings())
        })
        .unwrap();

    let typed = world_of_one()
        .run(move |mut session, _ctx| {
            for step in 0..STEPS {
                let world = session.world()?;
                for tag in 1..=NEIGHBORS {
                    session.send(&halo, 0, tag, world)?;
                    session.recv::<f64>(halo.len(), 0, tag, world)?;
                }
                let reduced = session.allreduce(&[step as f64], Op::sum(), world)?;
                assert_eq!(reduced, [step as f64]);
            }
            Ok(session.crossings())
        })
        .unwrap();

    assert!(raw[0] > STEPS * (2 * NEIGHBORS as u64 + 1));
    assert_eq!(
        typed, raw,
        "typed calls must forward one-to-one to the lower half"
    );
}

/// The satellite's checkpoint-restart proof: a `Datatype<f64>` and a `Comm` stored in
/// the upper half survive a restart **exactly like raw `AppHandle`s do** — both forms
/// of the same handles are stored before the checkpoint and compared after.
#[test]
fn typed_handles_survive_restart_like_raw_handles() {
    const TYPED: &str = "app.typed_handles";
    const RAW: &str = "app.raw_handles";

    let runtime = JobRuntime::new(JobConfig::new(2, Backend::OpenMpi));
    runtime
        .run(|mut session, ctx| {
            let world = session.world()?;
            let double = session.datatype::<f64>()?;
            let row = session.comm_split(world, Some(session.world_rank() % 2), 0)?;
            session
                .upper_mut()
                .store_json(TYPED, &(world, double, row))?;
            session
                .upper_mut()
                .store_json(RAW, &(world.handle(), double.handle(), row.handle()))?;
            ctx.checkpoint(&mut session)?;
            Ok(())
        })
        .unwrap();

    let restored = runtime.restart(Backend::OpenMpi).unwrap();
    runtime
        .run_restored(restored, |mut session, _ctx| {
            let (world, double, row): (Comm, Datatype<f64>, Comm) =
                session.upper().load_json(TYPED)?;
            let (raw_world, raw_double, raw_row): (AppHandle, AppHandle, AppHandle) =
                session.upper().load_json(RAW)?;
            // Bit-for-bit the same virtual ids as their raw counterparts...
            assert_eq!(world.handle(), raw_world);
            assert_eq!(double.handle(), raw_double);
            assert_eq!(row.handle(), raw_row);
            // ...and fully functional on the fresh lower half, typed and raw alike.
            assert_eq!(session.comm_size(world)?, 2);
            assert_eq!(session.comm_size(row)?, 1);
            assert_eq!(session.type_size(double)?, 8);
            assert_eq!(
                session.rank_mut().comm_size(raw_world)?,
                2,
                "the raw handle works through the byte layer too"
            );
            let sum = session.allreduce(&[2.5f64], Op::sum(), world)?[0];
            assert_eq!(sum, 5.0);
            Ok(())
        })
        .unwrap();
}

/// A derived struct datatype created through the typed layer is recorded in the
/// replay log and rebuilt at restart; the session wrapping the restored rank reuses
/// it instead of minting a duplicate.
#[test]
fn derived_struct_datatype_survives_restart() {
    const STATE: &str = "app.particle_type";

    let runtime = JobRuntime::new(JobConfig::new(2, Backend::Mpich));
    runtime
        .run(|mut session, ctx| {
            let ty = session.datatype::<Particle>()?;
            session.upper_mut().store_json(STATE, &ty)?;
            ctx.checkpoint(&mut session)?;
            Ok(())
        })
        .unwrap();

    let restored = runtime.restart(Backend::Mpich).unwrap();
    runtime
        .run_restored(restored, |mut session, _ctx| {
            let saved: Datatype<Particle> = session.upper().load_json(STATE)?;
            assert_eq!(session.type_size(saved)?, 32, "replayed derived type works");
            // Resolving the datatype again finds the restored descriptor instead of
            // creating a second derived type.
            let resolved = session.datatype::<Particle>()?;
            assert_eq!(resolved, saved);
            // And it still moves data.
            let world = session.world()?;
            let payload = [Particle {
                position: [9.0, 8.0, 7.0],
                id: 1,
            }];
            match session.world_rank() {
                0 => session.send(&payload, 1, 21, world)?,
                _ => {
                    let (received, _) = session.recv::<Particle>(1, 0, 21, world)?;
                    assert_eq!(received, payload);
                }
            }
            session.barrier(world)?;
            Ok(())
        })
        .unwrap();
}

/// A structurally identical — but *uncommitted* — derived type built through the
/// byte-layer escape hatch must not be adopted by the session's datatype
/// resolution: sending on it would fail with `TypeNotCommitted`, and committing it
/// behind the application's back would be a surprise. The session builds (and
/// commits) its own type instead.
#[test]
fn uncommitted_app_built_type_is_not_adopted() {
    let runtime = JobRuntime::new(JobConfig::new(1, Backend::Mpich));
    runtime
        .run(|mut session, _ctx| {
            let double = session.datatype::<f64>()?.handle();
            let ulong =
                session
                    .rank_mut()
                    .constant(mpi_model::constants::PredefinedObject::Datatype(
                        PrimitiveType::UnsignedLong,
                    ))?;
            // Same layout as Particle, created raw and deliberately left uncommitted.
            let uncommitted =
                session
                    .rank_mut()
                    .type_create_struct(&[3, 1], &[0, 24], &[double, ulong])?;
            // The typed resolution must mint a fresh committed type, not adopt it...
            let resolved = session.datatype::<Particle>()?;
            assert_ne!(resolved.handle(), uncommitted);
            // ...so typed traffic works even with the impostor in the table.
            let world = session.world()?;
            let payload = [Particle {
                position: [1.0, 2.0, 3.0],
                id: 5,
            }];
            session.send(&payload, 0, 31, world)?;
            let (received, _) = session.recv::<Particle>(1, 0, 31, world)?;
            assert_eq!(received, payload);
            Ok(())
        })
        .unwrap();
}
