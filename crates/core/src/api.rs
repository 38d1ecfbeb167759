//! The API identifiers `lakeLib` exposes to kernel space.
//!
//! LAKE "provides kernel space with the CUDA driver API version 11.0 as
//! well as TensorFlow 2.4.0 and Keras 2.2.5" (§6). Each remoted function
//! gets a numeric identifier serialized at the head of its command.

use lake_rpc::ApiId;

// -- CUDA driver API (0x1xx) ----------------------------------------------

/// `cuMemAlloc(bytes) -> DevicePtr`
pub const CU_MEM_ALLOC: ApiId = ApiId(0x101);
/// `cuMemFree(ptr)`
pub const CU_MEM_FREE: ApiId = ApiId(0x102);
/// `cuMemcpyHtoD(ptr, inline bytes)`
pub const CU_MEMCPY_HTOD: ApiId = ApiId(0x103);
/// `cuMemcpyHtoD(ptr, shm offset, len)` — zero-copy payload via `lakeShm`.
pub const CU_MEMCPY_HTOD_SHM: ApiId = ApiId(0x104);
/// `cuMemcpyDtoH(ptr, len) -> inline bytes`
pub const CU_MEMCPY_DTOH: ApiId = ApiId(0x105);
/// `cuMemcpyDtoH(ptr, shm offset, len)` — result deposited in `lakeShm`.
pub const CU_MEMCPY_DTOH_SHM: ApiId = ApiId(0x106);
/// `cuLaunchKernel(name, items, args)` (+ implicit `cuCtxSynchronize`)
pub const CU_LAUNCH_KERNEL: ApiId = ApiId(0x107);
/// `cuStreamCreate() -> stream`
pub const CU_STREAM_CREATE: ApiId = ApiId(0x108);
/// `cuStreamDestroy(stream)`
pub const CU_STREAM_DESTROY: ApiId = ApiId(0x109);
/// `cuMemcpyHtoDAsync(stream, ptr, shm offset, len)`
pub const CU_MEMCPY_HTOD_ASYNC_SHM: ApiId = ApiId(0x10A);
/// `cuLaunchKernel(stream, name, items, args)` without synchronize
pub const CU_LAUNCH_KERNEL_ASYNC: ApiId = ApiId(0x10B);
/// `cuMemcpyDtoHAsync(stream, ptr, shm offset, len)`
pub const CU_MEMCPY_DTOH_ASYNC_SHM: ApiId = ApiId(0x10C);
/// `cuStreamSynchronize(stream)`
pub const CU_STREAM_SYNCHRONIZE: ApiId = ApiId(0x10D);

// -- NVML (0x2xx) -----------------------------------------------------------

/// `nvmlDeviceGetUtilizationRates(window_us) -> percent`
pub const NVML_GET_UTILIZATION: ApiId = ApiId(0x201);

// -- High-level ML APIs (0x3xx) ---------------------------------------------

/// `tfLoadModel(blob) -> model id` — decodes a LAKE model blob in the
/// daemon, uploads weights to the device.
pub const ML_LOAD_MODEL: ApiId = ApiId(0x301);
/// `tfUnloadModel(model id)`
pub const ML_UNLOAD_MODEL: ApiId = ApiId(0x302);
/// `tfInfer(model id, rows, cols, shm offset) -> class per row` — batched
/// MLP inference.
pub const ML_INFER_MLP: ApiId = ApiId(0x303);
/// `kerasLstmInfer(model id, seqs, steps, features, shm offset) -> class
/// per sequence`.
pub const ML_INFER_LSTM: ApiId = ApiId(0x304);
/// `knnClassify(model id, rows, cols, shm offset) -> class per row`.
pub const ML_INFER_KNN: ApiId = ApiId(0x305);
/// `tfTrain(model id, rows, cols, epochs, lr, labels, shm offset) ->
/// final mean loss` — daemon-side SGD on an uploaded labeled batch
/// (online learning, §2.1).
pub const ML_TRAIN_MLP: ApiId = ApiId(0x306);
/// `tfExportModel(model id) -> serialized blob` — retrieve (possibly
/// retrained) weights, e.g. for the registry's `update_model`.
pub const ML_EXPORT_MODEL: ApiId = ApiId(0x307);
/// `tfInferSubmit(model id, client, cols, steps, shm offset) -> ticket` —
/// enqueue a single-row inference with the cross-subsystem batcher
/// instead of launching immediately.
pub const ML_INFER_SUBMIT: ApiId = ApiId(0x308);
/// `tfInferPoll(ticket) -> (ready, class)` — retrieve a batched result;
/// dispatches any queue whose max-wait deadline has passed.
pub const ML_INFER_POLL: ApiId = ApiId(0x309);
/// `tfInferFlush() -> batches dispatched` — force-dispatch every pending
/// batch.
pub const ML_INFER_FLUSH: ApiId = ApiId(0x30A);
/// `tfSwapModel(model id, blob) -> version` — versioned hot-swap: the
/// daemon installs the blob as the model's next version, drains pending
/// batches onto the old weights first, and answers with the version it
/// assigned. In-flight pins finish on the old version's page.
pub const ML_SWAP_MODEL: ApiId = ApiId(0x30B);
/// `tfQuantizeModel(model id) -> (new model id, version, blob)` — the
/// daemon quantizes a resident f32 MLP/LSTM to int8 (per-column symmetric
/// weight scales), installs the result as a *new* model id in the
/// quantized format family, and returns the encoded blob so the client
/// can shadow-register it for crash replay. The f32 original stays
/// loaded as the correctness oracle. Not idempotent: each call mints a
/// fresh model id.
pub const ML_QUANTIZE_MODEL: ApiId = ApiId(0x30C);

/// Whether `api` is safe to re-execute after a lost response: re-running
/// it observably changes nothing (pure reads, level-triggered writes of
/// the same payload, waits). Non-idempotent APIs — allocation, free,
/// stream lifecycle, launches that queue work, training, batcher submits,
/// and polls (which consume the ticket's result on pickup) — must never be
/// silently retried once the daemon may have executed them.
pub fn is_idempotent(api: ApiId) -> bool {
    matches!(
        api,
        NVML_GET_UTILIZATION
            | CU_MEMCPY_HTOD
            | CU_MEMCPY_HTOD_SHM
            | CU_MEMCPY_DTOH
            | CU_MEMCPY_DTOH_SHM
            | CU_STREAM_SYNCHRONIZE
            | ML_INFER_MLP
            | ML_INFER_LSTM
            | ML_INFER_KNN
            | ML_EXPORT_MODEL
    )
}

/// Registers every LAKE API's idempotency flag on `engine`, enabling its
/// retry-with-backoff for the safe subset.
pub fn register_idempotency(engine: &lake_rpc::CallEngine) {
    for api in ALL_APIS {
        engine.register_api(api, is_idempotent(api));
    }
}

/// Ordering constraint `api` places on the daemon executor's worker
/// pipeline (`LAKE_DAEMON_WORKERS` > 1); at width 1 each frame runs
/// inline on the acceptor in arrival order and nothing is classified.
///
/// * CUDA and NVML calls are `Concurrent`: the daemon's device tables are
///   thread-safe, and a caller that needs happens-before between its own
///   calls gets it from the synchronous wait per call.
/// * Direct inference and export are `Keyed` by the model id they lead
///   with — concurrent with each other, ordered against mutations of the
///   same model.
/// * Model mutations (swap, train, unload, quantize) are `KeyedBarrier`s
///   on their model id: they drain in-flight work on that model and hold
///   back later work until done, preserving the hot-swap versioning
///   contract ("in-flight rows finish on v, post-ack requests see v+1").
/// * Load (which allocates a fresh id, so there is no key to order on)
///   and the batcher pipeline (submit/poll/flush are one ordered stream;
///   poll's leading u64 is a *ticket*, not a model id) stay `Exclusive`.
///
/// `payload` may be truncated to its first 8 bytes (the executor peeks
/// only the leading model id for staged commands).
pub fn command_class(api: ApiId, payload: &[u8]) -> lake_rpc::CommandClass {
    use lake_rpc::CommandClass;
    let model_key =
        || payload.get(..8).map(|b| u64::from_le_bytes(b.try_into().expect("sliced to 8 bytes")));
    match api {
        CU_MEM_ALLOC
        | CU_MEM_FREE
        | CU_MEMCPY_HTOD
        | CU_MEMCPY_HTOD_SHM
        | CU_MEMCPY_DTOH
        | CU_MEMCPY_DTOH_SHM
        | CU_LAUNCH_KERNEL
        | CU_STREAM_CREATE
        | CU_STREAM_DESTROY
        | CU_MEMCPY_HTOD_ASYNC_SHM
        | CU_LAUNCH_KERNEL_ASYNC
        | CU_MEMCPY_DTOH_ASYNC_SHM
        | CU_STREAM_SYNCHRONIZE
        | NVML_GET_UTILIZATION => CommandClass::Concurrent,
        ML_INFER_MLP | ML_INFER_LSTM | ML_INFER_KNN | ML_EXPORT_MODEL => match model_key() {
            Some(id) => CommandClass::Keyed(id),
            None => CommandClass::Exclusive,
        },
        ML_SWAP_MODEL | ML_TRAIN_MLP | ML_UNLOAD_MODEL | ML_QUANTIZE_MODEL => match model_key() {
            Some(id) => CommandClass::KeyedBarrier(id),
            None => CommandClass::Exclusive,
        },
        _ => CommandClass::Exclusive,
    }
}

/// Every API identifier this module defines.
pub const ALL_APIS: [ApiId; 26] = [
    CU_MEM_ALLOC,
    CU_MEM_FREE,
    CU_MEMCPY_HTOD,
    CU_MEMCPY_HTOD_SHM,
    CU_MEMCPY_DTOH,
    CU_MEMCPY_DTOH_SHM,
    CU_LAUNCH_KERNEL,
    CU_STREAM_CREATE,
    CU_STREAM_DESTROY,
    CU_MEMCPY_HTOD_ASYNC_SHM,
    CU_LAUNCH_KERNEL_ASYNC,
    CU_MEMCPY_DTOH_ASYNC_SHM,
    CU_STREAM_SYNCHRONIZE,
    NVML_GET_UTILIZATION,
    ML_LOAD_MODEL,
    ML_UNLOAD_MODEL,
    ML_INFER_MLP,
    ML_INFER_LSTM,
    ML_INFER_KNN,
    ML_TRAIN_MLP,
    ML_EXPORT_MODEL,
    ML_INFER_SUBMIT,
    ML_INFER_POLL,
    ML_INFER_FLUSH,
    ML_SWAP_MODEL,
    ML_QUANTIZE_MODEL,
];

/// Human-readable name for diagnostics.
pub fn api_name(api: ApiId) -> &'static str {
    match api {
        CU_MEM_ALLOC => "cuMemAlloc",
        CU_MEM_FREE => "cuMemFree",
        CU_MEMCPY_HTOD => "cuMemcpyHtoD",
        CU_MEMCPY_HTOD_SHM => "cuMemcpyHtoD[shm]",
        CU_MEMCPY_DTOH => "cuMemcpyDtoH",
        CU_MEMCPY_DTOH_SHM => "cuMemcpyDtoH[shm]",
        CU_LAUNCH_KERNEL => "cuLaunchKernel",
        CU_STREAM_CREATE => "cuStreamCreate",
        CU_STREAM_DESTROY => "cuStreamDestroy",
        CU_MEMCPY_HTOD_ASYNC_SHM => "cuMemcpyHtoDAsync[shm]",
        CU_LAUNCH_KERNEL_ASYNC => "cuLaunchKernel[async]",
        CU_MEMCPY_DTOH_ASYNC_SHM => "cuMemcpyDtoHAsync[shm]",
        CU_STREAM_SYNCHRONIZE => "cuStreamSynchronize",
        NVML_GET_UTILIZATION => "nvmlDeviceGetUtilizationRates",
        ML_LOAD_MODEL => "tfLoadModel",
        ML_UNLOAD_MODEL => "tfUnloadModel",
        ML_INFER_MLP => "tfInfer",
        ML_INFER_LSTM => "kerasLstmInfer",
        ML_INFER_KNN => "knnClassify",
        ML_TRAIN_MLP => "tfTrain",
        ML_EXPORT_MODEL => "tfExportModel",
        ML_INFER_SUBMIT => "tfInferSubmit",
        ML_INFER_POLL => "tfInferPoll",
        ML_INFER_FLUSH => "tfInferFlush",
        ML_SWAP_MODEL => "tfSwapModel",
        ML_QUANTIZE_MODEL => "tfQuantizeModel",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let ids = [
            CU_MEM_ALLOC,
            CU_MEM_FREE,
            CU_MEMCPY_HTOD,
            CU_MEMCPY_HTOD_SHM,
            CU_MEMCPY_DTOH,
            CU_MEMCPY_DTOH_SHM,
            CU_LAUNCH_KERNEL,
            CU_STREAM_CREATE,
            CU_STREAM_DESTROY,
            CU_MEMCPY_HTOD_ASYNC_SHM,
            CU_LAUNCH_KERNEL_ASYNC,
            CU_MEMCPY_DTOH_ASYNC_SHM,
            CU_STREAM_SYNCHRONIZE,
            NVML_GET_UTILIZATION,
            ML_LOAD_MODEL,
            ML_UNLOAD_MODEL,
            ML_INFER_MLP,
            ML_INFER_LSTM,
            ML_INFER_KNN,
            ML_TRAIN_MLP,
            ML_EXPORT_MODEL,
            ML_INFER_SUBMIT,
            ML_INFER_POLL,
            ML_INFER_FLUSH,
            ML_SWAP_MODEL,
            ML_QUANTIZE_MODEL,
        ];
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn idempotency_classification_is_conservative() {
        // Pure reads and same-payload writes retry; anything that
        // allocates, frees, enqueues, trains, or consumes does not.
        assert!(is_idempotent(NVML_GET_UTILIZATION));
        assert!(is_idempotent(ML_INFER_MLP));
        assert!(is_idempotent(CU_MEMCPY_DTOH));
        assert!(!is_idempotent(CU_MEM_ALLOC));
        assert!(!is_idempotent(CU_MEM_FREE));
        assert!(!is_idempotent(CU_LAUNCH_KERNEL));
        assert!(!is_idempotent(ML_TRAIN_MLP));
        assert!(!is_idempotent(ML_INFER_SUBMIT));
        // A swap assigns the next version server-side: retrying one that
        // already landed would install yet another version.
        assert!(!is_idempotent(ML_SWAP_MODEL));
        assert!(!is_idempotent(ML_QUANTIZE_MODEL));
        // Poll consumes the ticket's result on pickup: a retry after a
        // delivered-but-lost response would see SCHED_BAD_TICKET.
        assert!(!is_idempotent(ML_INFER_POLL));
        // Unknown APIs default to non-idempotent.
        assert!(!is_idempotent(ApiId(0xdead)));
    }

    #[test]
    fn all_apis_is_exhaustive_and_named() {
        assert_eq!(ALL_APIS.len(), 26);
        for api in ALL_APIS {
            assert_ne!(api_name(api), "unknown", "{api} missing from api_name");
        }
    }

    #[test]
    fn names_resolve() {
        assert_eq!(api_name(CU_MEM_ALLOC), "cuMemAlloc");
        assert_eq!(api_name(ML_INFER_LSTM), "kerasLstmInfer");
        assert_eq!(api_name(ApiId(0xdead)), "unknown");
    }
}
