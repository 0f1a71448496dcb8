// Paper-flavoured DIET C API.
//
// Sections 4.2/4.3 show client and server code against DIET_client.h /
// DIET_server.h. This header reproduces that surface — diet_initialize,
// diet_profile_alloc, diet_scalar_set/get, diet_file_set/get, diet_call,
// diet_profile_desc_alloc, diet_generic_desc_set, diet_service_table_*,
// diet_SeD, and the GridRPC grpc_* aliases — as a thin veneer over the
// C++ core, so the examples can be written exactly like the paper's
// listings.
//
// Process binding: the in-process deployment (SimEnv + Registry) is bound
// once with capi::bind_process(); diet_initialize then resolves the MA
// named in the configuration file, exactly as the real library resolves
// it through omniORB.
//
// The blocking entries (diet_call, diet_wait*, diet_finalize) run the
// bound SimEnv's engine on the caller's stack until what they wait for
// has happened, so the paper's synchronous client code drives the
// simulation. Called from inside a DES handler (a solve function calling
// diet_call) they return an error instead of re-entering the engine.
#pragma once

#include <cstddef>

#include "diet/client.hpp"
#include "diet/profile.hpp"
#include "diet/sed.hpp"
#include "diet/service.hpp"
#include "naming/registry.hpp"
#include "net/simenv.hpp"

// --- DIET-style type names -------------------------------------------------

using diet_profile_t = gc::diet::Profile;
using diet_profile_desc_t = gc::diet::ProfileDesc;
using diet_arg_t = gc::diet::ArgValue;
using diet_arg_desc_t = gc::diet::ArgDesc;

enum diet_persistence_mode_t {
  DIET_VOLATILE = 0,
  DIET_PERSISTENT_RETURN = 1,
  DIET_PERSISTENT = 2,
  DIET_STICKY = 3,
};

enum diet_base_type_t {
  DIET_CHAR = 0,
  DIET_SHORT = 1,
  DIET_INT = 2,
  DIET_LONGINT = 3,
  DIET_FLOAT = 4,
  DIET_DOUBLE = 5,
};

enum diet_data_type_t {
  DIET_SCALAR = 0,
  DIET_VECTOR = 1,
  DIET_MATRIX = 2,
  DIET_STRING = 3,
  DIET_FILE = 4,
};

/// Works on both diet_profile_t (values) and diet_profile_desc_t
/// (descriptions), as in DIET.
#define diet_parameter(profile_ptr, index) (&(profile_ptr)->arg(index))

using diet_solve_t = int (*)(diet_profile_t*);

namespace gc::diet::capi {
/// Binds the in-process deployment this C API talks to. `client_node` is
/// where diet_initialize attaches its client.
void bind_process(net::SimEnv& env, naming::Registry& registry,
                  net::NodeId client_node);
void unbind_process();
}  // namespace gc::diet::capi

// --- client side (DIET_client.h) --------------------------------------------

/// Parses the configuration file (MAName = ...) and connects to the MA.
int diet_initialize(const char* config_file, int argc, char** argv);
int diet_finalize();

diet_profile_t* diet_profile_alloc(const char* path, int last_in,
                                   int last_inout, int last_out);
int diet_profile_free(diet_profile_t* profile);

int diet_scalar_set(diet_arg_t* arg, const void* value,
                    diet_persistence_mode_t mode, diet_base_type_t base);
/// `value` receives a pointer into the profile's storage (DIET semantics:
/// OUT memory is allocated by DIET; free via diet_free_data / profile
/// free).
int diet_scalar_get(diet_arg_t* arg, void* value_out,
                    diet_persistence_mode_t* mode);
int diet_string_set(diet_arg_t* arg, const char* value,
                    diet_persistence_mode_t mode);
int diet_file_set(diet_arg_t* arg, diet_persistence_mode_t mode,
                  const char* path);
/// Paper usage: diet_file_get(diet_parameter(p,7), NULL, &size, &path).
int diet_file_get(diet_arg_t* arg, diet_persistence_mode_t* mode,
                  std::size_t* size, char** path);

/// Synchronous GridRPC call through the bound session: 0 on success, 1 if
/// the call failed or the engine ran out of events before it completed.
int diet_call(diet_profile_t* profile);

// GridRPC aliases ("all diet_ functions are duplicated with grpc_
// functions", Section 4.3.1) — including the asynchronous call family of
// the GridRPC definition the paper cites.
int grpc_initialize(const char* config_file);
int grpc_finalize();
int grpc_call(diet_profile_t* profile);

/// Asynchronous request identifier (grpc_sessionid_t in the standard).
using diet_reqID_t = std::uint64_t;

/// Starts a call and returns immediately; *request_id identifies it.
int diet_call_async(diet_profile_t* profile, diet_reqID_t* request_id);
/// Blocks until the given request completes; returns its solve status
/// (0 = success, 1 = failed or never completed, -1 = unknown id). The
/// profile passed to diet_call_async holds the merged OUT/INOUT values
/// afterwards.
int diet_wait(diet_reqID_t request_id);
/// Blocks until ALL outstanding async requests of this session complete;
/// returns 0 iff every one succeeded.
int diet_wait_all();
/// Blocks until ANY outstanding request completes and stores in
/// *request_id the lowest id among the requests complete at that point
/// (the same id on every run). Returns its status, or -1 when no request
/// is outstanding or none completes.
int diet_wait_any(diet_reqID_t* request_id);
/// Non-blocking completion probe: 0 = completed, 1 = still running,
/// -1 = unknown id.
int diet_probe(diet_reqID_t request_id);
/// Forgets a completed request (frees its bookkeeping).
int diet_cancel(diet_reqID_t request_id);

int grpc_call_async(diet_profile_t* profile, diet_reqID_t* request_id);
int grpc_wait(diet_reqID_t request_id);
int grpc_wait_all();
int grpc_wait_any(diet_reqID_t* request_id);
int grpc_probe(diet_reqID_t request_id);

// --- server side (DIET_server.h) --------------------------------------------

diet_profile_desc_t* diet_profile_desc_alloc(const char* path, int last_in,
                                             int last_inout, int last_out);
int diet_profile_desc_free(diet_profile_desc_t* desc);
int diet_generic_desc_set(diet_arg_desc_t* arg, diet_data_type_t type,
                          diet_base_type_t base);

int diet_service_table_init(int max_size);
int diet_service_table_add(const diet_profile_desc_t* profile,
                           const void* convertor, diet_solve_t solve);
void diet_print_service_table();

/// Launches a SED on the bound deployment: reads parentName from the
/// configuration file, registers the service table, and returns. (The
/// real diet_SeD never returns; in-process the SED serves requests while
/// the client's blocking calls run the engine — see DESIGN.md.)
int diet_SeD(const char* config_file, int argc, char** argv);

/// The solve-side result setter used in Section 4.2.3's listing.
int diet_file_desc_set(diet_arg_t* arg, char* path);

/// "Diet cannot guess how long the user needs these data for, so it lets
/// him/her free the memory with diet_free_data()" (Section 4.2.1).
int diet_free_data(diet_arg_t* arg);
