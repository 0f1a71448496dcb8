#include "diet/capi.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "diet/config.hpp"

namespace {

using gc::diet::Client;
using gc::diet::Config;
using gc::diet::Sed;
using gc::diet::SedTuning;
using gc::diet::ServiceTable;

/// Completion state of one diet_call_async request.
struct AsyncRequest {
  bool completed = false;
  int status = -1;
  diet_profile_t* profile = nullptr;  ///< caller's profile to merge into
};

struct Session {
  gc::net::SimEnv* env = nullptr;
  gc::naming::Registry* registry = nullptr;
  gc::net::NodeId client_node = 0;
  std::unique_ptr<Client> client;
  std::unique_ptr<ServiceTable> table;
  std::vector<std::unique_ptr<Sed>> seds;
  std::uint64_t next_sed_uid = 1000;

  std::map<diet_reqID_t, AsyncRequest> async_requests;
  diet_reqID_t next_request_id = 1;
};

Session g_session;

/// True (after logging) when a blocking entry was called from inside a
/// DES handler, a solve function calling diet_call for one: waiting there
/// would re-enter the engine. Also true when no env is bound.
bool cannot_block(const char* entry) {
  if (g_session.env == nullptr) return true;
  if (g_session.env->engine().current_cid() == 0) return false;
  GC_ERROR << entry << ": called from inside a DES handler";
  return true;
}

/// Runs the bound engine until `done()` holds or the calendar is empty;
/// returns done(). Every blocking entry waits through this.
template <typename Done>
bool run_until(Done done) {
  gc::des::Engine& engine = g_session.env->engine();
  while (!done()) {
    if (!engine.step()) return false;
  }
  return true;
}

gc::diet::Persistence to_persistence(diet_persistence_mode_t mode) {
  return static_cast<gc::diet::Persistence>(mode);
}
gc::diet::BaseType to_base(diet_base_type_t base) {
  return static_cast<gc::diet::BaseType>(base);
}

}  // namespace

namespace gc::diet::capi {

void bind_process(net::SimEnv& env, naming::Registry& registry,
                  net::NodeId client_node) {
  g_session.env = &env;
  g_session.registry = &registry;
  g_session.client_node = client_node;
}

void unbind_process() {
  g_session.client.reset();
  g_session.seds.clear();
  g_session.table.reset();
  g_session = Session{};  // the next binding starts a fresh session
}

}  // namespace gc::diet::capi

// --- client side -------------------------------------------------------------

int diet_initialize(const char* config_file, int /*argc*/, char** /*argv*/) {
  if (g_session.env == nullptr || g_session.registry == nullptr) {
    GC_ERROR << "diet_initialize: no process binding (call "
                "gc::diet::capi::bind_process first)";
    return 1;
  }
  auto config = Config::load(config_file);
  if (!config.is_ok()) {
    GC_ERROR << "diet_initialize: " << config.status().to_string();
    return 1;
  }
  const std::string ma_name = config.value().get_or("MAName", "MA1");
  auto ma = g_session.registry->resolve(ma_name);
  if (!ma.is_ok()) {
    GC_ERROR << "diet_initialize: cannot resolve MA '" << ma_name << "'";
    return 1;
  }
  g_session.client = std::make_unique<Client>("capi-client");
  g_session.env->attach(*g_session.client, g_session.client_node);
  g_session.client->connect(ma.value());
  return 0;
}

int diet_finalize() {
  if (g_session.env != nullptr) {
    if (cannot_block("diet_finalize")) return 1;
    g_session.env->engine().run();
  }
  g_session.async_requests.clear();
  g_session.client.reset();
  return 0;
}

diet_profile_t* diet_profile_alloc(const char* path, int last_in,
                                   int last_inout, int last_out) {
  return new gc::diet::Profile(path, last_in, last_inout, last_out);
}

int diet_profile_free(diet_profile_t* profile) {
  delete profile;
  return 0;
}

int diet_scalar_set(diet_arg_t* arg, const void* value,
                    diet_persistence_mode_t mode, diet_base_type_t base) {
  if (arg == nullptr || value == nullptr) return 1;
  gc::Status status;
  switch (base) {
    case DIET_CHAR:
      status = arg->set_scalar<char>(*static_cast<const char*>(value),
                                     to_base(base), to_persistence(mode));
      break;
    case DIET_SHORT:
      status = arg->set_scalar<short>(*static_cast<const short*>(value),
                                      to_base(base), to_persistence(mode));
      break;
    case DIET_INT:
      status = arg->set_scalar<std::int32_t>(
          *static_cast<const std::int32_t*>(value), to_base(base),
          to_persistence(mode));
      break;
    case DIET_LONGINT:
      status = arg->set_scalar<std::int64_t>(
          *static_cast<const std::int64_t*>(value), to_base(base),
          to_persistence(mode));
      break;
    case DIET_FLOAT:
      status = arg->set_scalar<float>(*static_cast<const float*>(value),
                                      to_base(base), to_persistence(mode));
      break;
    case DIET_DOUBLE:
      status = arg->set_scalar<double>(*static_cast<const double*>(value),
                                       to_base(base), to_persistence(mode));
      break;
    default:
      return 1;
  }
  return status.is_ok() ? 0 : 1;
}

int diet_scalar_get(diet_arg_t* arg, void* value_out,
                    diet_persistence_mode_t* mode) {
  if (arg == nullptr || value_out == nullptr || !arg->has_value()) return 1;
  // DIET semantics: the caller receives a pointer to the value zone.
  *static_cast<const void**>(value_out) = arg->data_ptr();
  if (mode != nullptr) {
    *mode = static_cast<diet_persistence_mode_t>(arg->desc.persistence);
  }
  return 0;
}

int diet_string_set(diet_arg_t* arg, const char* value,
                    diet_persistence_mode_t mode) {
  if (arg == nullptr || value == nullptr) return 1;
  return arg->set_string(value, to_persistence(mode)).is_ok() ? 0 : 1;
}

int diet_file_set(diet_arg_t* arg, diet_persistence_mode_t mode,
                  const char* path) {
  if (arg == nullptr) return 1;
  // NULL path = OUT file declared without a value (Section 4.3.2).
  if (path == nullptr) {
    arg->desc.type = gc::diet::DataType::kFile;
    arg->desc.base = gc::diet::BaseType::kChar;
    arg->desc.persistence = to_persistence(mode);
    arg->clear_value();
    return 0;
  }
  return arg->set_file(path, to_persistence(mode)).is_ok() ? 0 : 1;
}

int diet_file_get(diet_arg_t* arg, diet_persistence_mode_t* mode,
                  std::size_t* size, char** path) {
  if (arg == nullptr) return 1;
  auto file = arg->get_file();
  if (!file.is_ok()) return 1;
  if (mode != nullptr) {
    *mode = static_cast<diet_persistence_mode_t>(arg->desc.persistence);
  }
  if (size != nullptr) {
    *size = static_cast<std::size_t>(file.value().size_bytes);
  }
  if (path != nullptr) {
    // DIET allocates the zone and the user frees it.
    *path = ::strdup(file.value().path.c_str());
  }
  return 0;
}

int diet_call(diet_profile_t* profile) {
  if (cannot_block("diet_call")) return 1;
  diet_reqID_t id = 0;
  if (diet_call_async(profile, &id) != 0) return 1;
  const int status = diet_wait(id);
  diet_cancel(id);
  if (status != 0) {
    GC_WARN << "diet_call: " << profile->path() << " failed";
    return 1;
  }
  return 0;
}

int grpc_initialize(const char* config_file) {
  return diet_initialize(config_file, 0, nullptr);
}
int grpc_finalize() { return diet_finalize(); }
int grpc_call(diet_profile_t* profile) { return diet_call(profile); }

// --- asynchronous GridRPC family ----------------------------------------------

int diet_call_async(diet_profile_t* profile, diet_reqID_t* request_id) {
  if (g_session.client == nullptr || profile == nullptr ||
      request_id == nullptr) {
    return 1;
  }
  const diet_reqID_t id = g_session.next_request_id++;
  g_session.async_requests[id] = AsyncRequest{false, -1, profile};
  *request_id = id;
  g_session.client->call_async(
      *profile, [id](const gc::Status& status, gc::diet::Profile& result) {
        auto it = g_session.async_requests.find(id);
        if (it == g_session.async_requests.end()) return;  // cancelled
        if (it->second.profile != nullptr) {
          *it->second.profile = result;  // merge OUT/INOUT back
        }
        it->second.completed = true;
        it->second.status = status.is_ok() ? 0 : 1;
      });
  return 0;
}

int diet_wait(diet_reqID_t request_id) {
  if (cannot_block("diet_wait")) return 1;
  if (g_session.async_requests.count(request_id) == 0) return -1;
  run_until([request_id] {
    auto it = g_session.async_requests.find(request_id);
    return it == g_session.async_requests.end() || it->second.completed;
  });
  auto it = g_session.async_requests.find(request_id);
  if (it == g_session.async_requests.end()) return -1;
  return it->second.completed ? it->second.status : 1;
}

int diet_wait_all() {
  if (cannot_block("diet_wait_all")) return 1;
  const bool all_done = run_until([] {
    for (const auto& [id, request] : g_session.async_requests) {
      (void)id;
      if (!request.completed) return false;
    }
    return true;
  });
  if (!all_done) return 1;
  int worst = 0;
  for (const auto& [id, request] : g_session.async_requests) {
    (void)id;
    worst = std::max(worst, request.status);
  }
  return worst;
}

int diet_wait_any(diet_reqID_t* request_id) {
  if (request_id == nullptr || cannot_block("diet_wait_any") ||
      g_session.async_requests.empty()) {
    return -1;
  }
  // Requests complete in engine events, and the scan runs between steps:
  // the lowest id complete after the first step that completes any.
  diet_reqID_t found = 0;
  run_until([&found] {
    for (const auto& [id, request] : g_session.async_requests) {
      if (request.completed) {
        found = id;
        return true;
      }
    }
    return false;
  });
  if (found == 0) return -1;
  *request_id = found;
  return g_session.async_requests[found].status;
}

int diet_probe(diet_reqID_t request_id) {
  auto it = g_session.async_requests.find(request_id);
  if (it == g_session.async_requests.end()) return -1;
  return it->second.completed ? 0 : 1;
}

int diet_cancel(diet_reqID_t request_id) {
  return g_session.async_requests.erase(request_id) > 0 ? 0 : -1;
}

int grpc_call_async(diet_profile_t* profile, diet_reqID_t* request_id) {
  return diet_call_async(profile, request_id);
}
int grpc_wait(diet_reqID_t request_id) { return diet_wait(request_id); }
int grpc_wait_all() { return diet_wait_all(); }
int grpc_wait_any(diet_reqID_t* request_id) {
  return diet_wait_any(request_id);
}
int grpc_probe(diet_reqID_t request_id) { return diet_probe(request_id); }

// --- server side --------------------------------------------------------------

diet_profile_desc_t* diet_profile_desc_alloc(const char* path, int last_in,
                                             int last_inout, int last_out) {
  return new gc::diet::ProfileDesc(path, last_in, last_inout, last_out);
}

int diet_profile_desc_free(diet_profile_desc_t* desc) {
  delete desc;
  return 0;
}

int diet_generic_desc_set(diet_arg_desc_t* arg, diet_data_type_t type,
                          diet_base_type_t base) {
  if (arg == nullptr) return 1;
  arg->type = static_cast<gc::diet::DataType>(type);
  arg->base = to_base(base);
  return 0;
}

int diet_service_table_init(int max_size) {
  g_session.table =
      std::make_unique<ServiceTable>(static_cast<std::size_t>(max_size));
  return 0;
}

int diet_service_table_add(const diet_profile_desc_t* profile,
                           const void* /*convertor*/, diet_solve_t solve) {
  if (g_session.table == nullptr || profile == nullptr || solve == nullptr) {
    return 1;
  }
  const gc::Status status = g_session.table->add_sync(
      *profile,
      [solve](gc::diet::Profile& p) { return solve(&p); });
  return status.is_ok() ? 0 : 1;
}

void diet_print_service_table() {
  if (g_session.table != nullptr) {
    GC_INFO << "\n" << g_session.table->to_string();
  }
}

int diet_SeD(const char* config_file, int /*argc*/, char** /*argv*/) {
  if (g_session.env == nullptr || g_session.registry == nullptr ||
      g_session.table == nullptr) {
    GC_ERROR << "diet_SeD: missing binding or service table";
    return 1;
  }
  auto config = Config::load(config_file);
  if (!config.is_ok()) {
    GC_ERROR << "diet_SeD: " << config.status().to_string();
    return 1;
  }
  const std::string parent_name =
      config.value().get_or("parentName", "MA1");
  auto parent = g_session.registry->resolve(parent_name);
  if (!parent.is_ok()) {
    GC_ERROR << "diet_SeD: cannot resolve parent '" << parent_name << "'";
    return 1;
  }
  SedTuning tuning;
  tuning.work_dir = config.value().get_or("workDir", "/tmp");
  const auto node = static_cast<gc::net::NodeId>(
      config.value().get_int("nodeId").value_or(0));
  const double power = config.value().get_double("hostPower").value_or(1.0);
  const auto machines =
      static_cast<int>(config.value().get_int("machines").value_or(1));
  const std::string name =
      config.value().get_or("name", "SeD-" +
                                        std::to_string(g_session.next_sed_uid));
  const auto uid = g_session.next_sed_uid++;
  auto sed = std::make_unique<Sed>(uid, name, *g_session.table, power,
                                   machines, tuning, /*seed=*/uid + 1);
  g_session.env->attach(*sed, node);
  sed->register_at(parent.value());
  g_session.seds.push_back(std::move(sed));
  // The real diet_SeD blocks forever serving requests; in-process the SED
  // serves them whenever a blocking client call runs the engine, so we
  // return and let the caller go on to its client code.
  return 0;
}

int diet_file_desc_set(diet_arg_t* arg, char* path) {
  if (arg == nullptr || path == nullptr) return 1;
  return arg->set_file(path, arg->desc.persistence).is_ok() ? 0 : 1;
}

int diet_free_data(diet_arg_t* arg) {
  if (arg == nullptr) return 1;
  arg->clear_value();
  return 0;
}
