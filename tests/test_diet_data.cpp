// Tests for DIET data types, profiles, config and protocol messages.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "diet/config.hpp"
#include "diet/data.hpp"
#include "diet/profile.hpp"
#include "diet/protocol.hpp"

namespace gc::diet {
namespace {

// ---------- ArgValue ----------

TEST(ArgValue, ScalarRoundtrip) {
  ArgValue arg;
  ASSERT_TRUE(arg.set_scalar<std::int32_t>(128, BaseType::kInt,
                                           Persistence::kVolatile)
                  .is_ok());
  EXPECT_TRUE(arg.has_value());
  auto back = arg.get_scalar<std::int32_t>();
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), 128);
  EXPECT_EQ(arg.desc.type, DataType::kScalar);
  EXPECT_EQ(arg.wire_bytes(), 4);
}

TEST(ArgValue, ScalarTypeSizeMismatch) {
  ArgValue arg;
  const auto status =
      arg.set_scalar<double>(1.0, BaseType::kInt, Persistence::kVolatile);
  EXPECT_FALSE(status.is_ok());  // double is 8 bytes, INT is 4
}

TEST(ArgValue, ScalarGetWrongType) {
  ArgValue arg;
  ASSERT_TRUE(arg.set_scalar<std::int32_t>(1, BaseType::kInt,
                                           Persistence::kVolatile)
                  .is_ok());
  EXPECT_FALSE(arg.get_scalar<double>().is_ok());
}

TEST(ArgValue, VectorRoundtrip) {
  ArgValue arg;
  const std::vector<double> values = {1.0, 2.5, -3.0};
  ASSERT_TRUE(arg.set_vector<double>(values, BaseType::kDouble,
                                     Persistence::kPersistent)
                  .is_ok());
  auto back = arg.get_vector<double>();
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), values);
  EXPECT_EQ(arg.desc.rows, 3u);
  EXPECT_EQ(arg.desc.persistence, Persistence::kPersistent);
  EXPECT_EQ(arg.wire_bytes(), 24);
}

TEST(ArgValue, StringRoundtrip) {
  ArgValue arg;
  ASSERT_TRUE(arg.set_string("hello grid", Persistence::kVolatile).is_ok());
  auto back = arg.get_string();
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), "hello grid");
}

TEST(ArgValue, FileWithPinnedSize) {
  ArgValue arg;
  ASSERT_TRUE(
      arg.set_file("/nfs/sim/results.tar", Persistence::kVolatile, 1 << 20)
          .is_ok());
  auto file = arg.get_file();
  ASSERT_TRUE(file.is_ok());
  EXPECT_EQ(file.value().path, "/nfs/sim/results.tar");
  EXPECT_EQ(file.value().size_bytes, 1 << 20);
  EXPECT_EQ(arg.wire_bytes(), 1 << 20);
}

TEST(ArgValue, FileStatsRealFile) {
  const std::string path = "/tmp/gc_test_argvalue_file.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string(1234, 'x');
  }
  ArgValue arg;
  ASSERT_TRUE(arg.set_file(path, Persistence::kVolatile).is_ok());
  EXPECT_EQ(arg.get_file().value().size_bytes, 1234);
  std::filesystem::remove(path);
}

TEST(ArgValue, MissingValueErrors) {
  ArgValue arg;
  EXPECT_FALSE(arg.get_scalar<std::int32_t>().is_ok());
  EXPECT_FALSE(arg.get_string().is_ok());
  EXPECT_FALSE(arg.get_file().is_ok());
  EXPECT_EQ(arg.wire_bytes(), 0);
}

TEST(ArgValue, SerializeValueRoundtrip) {
  ArgValue scalar;
  ASSERT_TRUE(scalar
                  .set_scalar<std::int64_t>(-7, BaseType::kLongInt,
                                            Persistence::kSticky)
                  .is_ok());
  ArgValue file;
  ASSERT_TRUE(
      file.set_file("/x/y.tar", Persistence::kVolatile, 4096).is_ok());
  ArgValue empty;
  empty.desc.type = DataType::kScalar;

  net::Writer writer;
  scalar.serialize_value(writer);
  file.serialize_value(writer);
  empty.serialize_value(writer);

  net::Reader reader(writer.data());
  ArgValue back;
  back.deserialize_value(reader);
  EXPECT_EQ(back.get_scalar<std::int64_t>().value(), -7);
  EXPECT_EQ(back.desc.persistence, Persistence::kSticky);
  back.deserialize_value(reader);
  EXPECT_EQ(back.get_file().value().path, "/x/y.tar");
  EXPECT_EQ(back.modeled_bytes(), 4096);
  back.deserialize_value(reader);
  EXPECT_FALSE(back.has_value());
  EXPECT_TRUE(reader.done());
}

// ---------- ProfileDesc / Profile ----------

TEST(ProfileDesc, PaperShape) {
  // arg.profile = diet_profile_desc_alloc("ramsesZoom2", 6, 6, 8);
  ProfileDesc desc("ramsesZoom2", 6, 6, 8);
  EXPECT_EQ(desc.arg_count(), 9);
  EXPECT_EQ(desc.direction(0), Direction::kIn);
  EXPECT_EQ(desc.direction(6), Direction::kIn);
  EXPECT_EQ(desc.direction(7), Direction::kOut);
  EXPECT_EQ(desc.direction(8), Direction::kOut);
}

TEST(ProfileDesc, InOutDirections) {
  ProfileDesc desc("svc", 0, 2, 4);
  EXPECT_EQ(desc.direction(0), Direction::kIn);
  EXPECT_EQ(desc.direction(1), Direction::kInOut);
  EXPECT_EQ(desc.direction(2), Direction::kInOut);
  EXPECT_EQ(desc.direction(3), Direction::kOut);
}

TEST(ProfileDesc, NoInArguments) {
  ProfileDesc desc("outonly", -1, -1, 0);
  EXPECT_EQ(desc.arg_count(), 1);
  EXPECT_EQ(desc.direction(0), Direction::kOut);
}

TEST(ProfileDesc, Matching) {
  ProfileDesc a("svc", 1, 1, 2);
  a.arg(0).type = DataType::kFile;
  a.arg(0).base = BaseType::kChar;
  a.arg(1).type = DataType::kScalar;
  a.arg(1).base = BaseType::kInt;
  a.arg(2).type = DataType::kScalar;
  a.arg(2).base = BaseType::kInt;

  ProfileDesc b = a;
  EXPECT_TRUE(a.matches(b));

  ProfileDesc other_name("svc2", 1, 1, 2);
  EXPECT_FALSE(a.matches(other_name));

  ProfileDesc wrong_type = a;
  wrong_type.arg(1).base = BaseType::kDouble;
  EXPECT_FALSE(a.matches(wrong_type));

  ProfileDesc wrong_shape("svc", 0, 1, 2);
  EXPECT_FALSE(a.matches(wrong_shape));
}

TEST(ProfileDesc, SerializeRoundtrip) {
  ProfileDesc desc("ramsesZoom2", 6, 6, 8);
  desc.arg(0).type = DataType::kFile;
  desc.arg(7).type = DataType::kFile;
  net::Writer writer;
  desc.serialize(writer);
  net::Reader reader(writer.data());
  const ProfileDesc back = ProfileDesc::deserialize(reader);
  EXPECT_TRUE(back.matches(desc));
  EXPECT_TRUE(reader.done());
}

TEST(ProfileDesc, DeserializeGarbageIsInvalid) {
  net::Writer writer;
  writer.str("x");
  writer.i32(5);
  writer.i32(3);  // last_inout < last_in: invalid
  writer.i32(7);
  net::Reader reader(writer.data());
  const ProfileDesc back = ProfileDesc::deserialize(reader);
  EXPECT_FALSE(back.valid());
}

TEST(Profile, InputsCompleteAndBytes) {
  Profile profile("svc", 1, 1, 2);
  EXPECT_FALSE(profile.inputs_complete());
  profile.arg(0).set_scalar<std::int32_t>(1, BaseType::kInt,
                                          Persistence::kVolatile);
  EXPECT_FALSE(profile.inputs_complete());
  profile.arg(1).set_vector<double>(std::vector<double>{1, 2},
                                    BaseType::kDouble,
                                    Persistence::kVolatile);
  EXPECT_TRUE(profile.inputs_complete());
  EXPECT_EQ(profile.in_bytes(), 4 + 16);
}

TEST(Profile, FileBytesSeparated) {
  Profile profile("svc", 1, 1, 3);
  profile.arg(0).set_file("/in.nml", Persistence::kVolatile, 4096);
  profile.arg(1).set_scalar<std::int32_t>(1, BaseType::kInt,
                                          Persistence::kVolatile);
  profile.arg(2).set_file("/out.tar", Persistence::kVolatile, 1 << 20);
  EXPECT_EQ(profile.in_file_bytes(), 4096);
  EXPECT_EQ(profile.out_file_bytes(), (1 << 20));
  EXPECT_EQ(profile.in_bytes(), 4096 + 4);
}

TEST(Profile, InputsSerializeToCalleeAndBack) {
  Profile caller("svc", 2, 3, 5);
  caller.arg(0).set_scalar<std::int32_t>(42, BaseType::kInt,
                                         Persistence::kVolatile);
  caller.arg(1).set_string("params", Persistence::kVolatile);
  caller.arg(2).set_file("/in.bin", Persistence::kVolatile, 10);
  caller.arg(3).set_scalar<double>(2.5, BaseType::kDouble,
                                   Persistence::kVolatile);  // INOUT

  net::Writer writer;
  caller.serialize_inputs(writer);
  net::Reader reader(writer.data());
  Profile callee =
      Profile::deserialize_inputs(caller.desc(), 2, 3, 5, reader).value();

  EXPECT_EQ(callee.arg(0).get_scalar<std::int32_t>().value(), 42);
  EXPECT_EQ(callee.arg(1).get_string().value(), "params");
  EXPECT_EQ(callee.arg(2).get_file().value().path, "/in.bin");
  EXPECT_DOUBLE_EQ(callee.arg(3).get_scalar<double>().value(), 2.5);
  EXPECT_FALSE(callee.arg(4).has_value());  // OUT not shipped

  // Callee fills INOUT + OUT; merge back.
  callee.arg(3).set_scalar<double>(7.5, BaseType::kDouble,
                                   Persistence::kVolatile);
  callee.arg(4).set_file("/out.tar", Persistence::kVolatile, 999);
  callee.arg(5).set_scalar<std::int32_t>(0, BaseType::kInt,
                                         Persistence::kVolatile);
  net::Writer out_writer;
  callee.serialize_outputs(out_writer);
  net::Reader out_reader(out_writer.data());
  caller.merge_outputs(out_reader);

  EXPECT_DOUBLE_EQ(caller.arg(3).get_scalar<double>().value(), 7.5);
  EXPECT_EQ(caller.arg(4).get_file().value().path, "/out.tar");
  EXPECT_EQ(caller.arg(5).get_scalar<std::int32_t>().value(), 0);
  // IN args keep the caller's values ("brought back into the same memory
  // zone" applies to INOUT only).
  EXPECT_EQ(caller.arg(0).get_scalar<std::int32_t>().value(), 42);
}

// ---------- Config ----------

TEST(Config, ParseBasics) {
  const Config config = Config::parse(
      "# client configuration\n"
      "MAName = MA1\n"
      "schedulerPolicy=mct\n"
      "  traceLevel =  5  # inline comment\n"
      "\n"
      "malformed line without equals\n");
  EXPECT_EQ(config.get_or("maname", ""), "MA1");
  EXPECT_EQ(config.get_or("SCHEDULERPOLICY", ""), "mct");  // case-insensitive
  EXPECT_EQ(config.get_int("tracelevel").value(), 5);
  EXPECT_FALSE(config.get("missing").has_value());
}

TEST(Config, TypedAccessors) {
  const Config config = Config::parse("a = 12\nb = 2.5\nc = nope\n");
  EXPECT_EQ(config.get_int("a").value(), 12);
  EXPECT_DOUBLE_EQ(config.get_double("b").value(), 2.5);
  EXPECT_FALSE(config.get_int("c").is_ok());
  EXPECT_FALSE(config.get_int("zz").is_ok());
}

TEST(Config, RoundtripThroughToString) {
  Config config;
  config.set("MAName", "MA1");
  config.set("parentName", "LA-lyon");
  const Config back = Config::parse(config.to_string());
  EXPECT_EQ(back.get_or("maname", ""), "MA1");
  EXPECT_EQ(back.get_or("parentname", ""), "LA-lyon");
}

TEST(Config, LoadMissingFileFails) {
  EXPECT_FALSE(Config::load("/nonexistent/path.cfg").is_ok());
}

// ---------- protocol messages ----------

TEST(Protocol, SedRegisterRoundtrip) {
  SedRegisterMsg msg;
  msg.sed_uid = 3;
  msg.name = "SeD-violette-0";
  msg.host_power = 1.0;
  msg.machines = 16;
  msg.services.emplace_back("ramsesZoom2", 6, 6, 8);
  const auto back = SedRegisterMsg::decode(msg.encode());
  EXPECT_EQ(back.sed_uid, 3u);
  EXPECT_EQ(back.name, "SeD-violette-0");
  EXPECT_EQ(back.machines, 16);
  ASSERT_EQ(back.services.size(), 1u);
  EXPECT_EQ(back.services[0].path(), "ramsesZoom2");
}

TEST(Protocol, SubmitAndCollectRoundtrip) {
  RequestSubmitMsg submit;
  submit.client_request_id = 55;
  submit.desc = ProfileDesc("ramsesZoom1", 2, 2, 4);
  submit.in_bytes = 5000;
  const auto submit_back = RequestSubmitMsg::decode(submit.encode());
  EXPECT_EQ(submit_back.client_request_id, 55u);
  EXPECT_EQ(submit_back.desc.path(), "ramsesZoom1");
  EXPECT_EQ(submit_back.in_bytes, 5000);

  RequestCollectMsg collect;
  collect.request_key = 77;
  collect.desc = submit.desc;
  const auto collect_back = RequestCollectMsg::decode(collect.encode());
  EXPECT_EQ(collect_back.request_key, 77u);
  EXPECT_TRUE(collect_back.desc.matches(submit.desc));
}

TEST(Protocol, ReplyRoundtrip) {
  RequestReplyMsg reply;
  reply.client_request_id = 9;
  reply.found = true;
  reply.chosen.sed_uid = 4;
  reply.chosen.sed_name = "SeD-grelon-1";
  reply.chosen.est.host_power = 1.43;
  const auto back = RequestReplyMsg::decode(reply.encode());
  EXPECT_TRUE(back.found);
  EXPECT_EQ(back.chosen.sed_uid, 4u);
  EXPECT_DOUBLE_EQ(back.chosen.est.host_power, 1.43);

  RequestReplyMsg not_found;
  not_found.client_request_id = 10;
  not_found.found = false;
  EXPECT_FALSE(RequestReplyMsg::decode(not_found.encode()).found);
}

TEST(Protocol, CallMessagesRoundtrip) {
  CallDataMsg data;
  data.call_id = 12;
  data.path = "ramsesZoom2";
  data.last_in = 6;
  data.last_inout = 6;
  data.last_out = 8;
  data.inputs = net::Bytes{9, 8, 7};
  const auto data_back = CallDataMsg::decode(data.encode());
  EXPECT_EQ(data_back.call_id, 12u);
  EXPECT_EQ(data_back.inputs, (net::Bytes{9, 8, 7}));

  CallResultMsg result;
  result.call_id = 12;
  result.solve_status = 0;
  result.outputs = net::Bytes{1};
  const auto result_back = CallResultMsg::decode(result.encode());
  EXPECT_EQ(result_back.solve_status, 0);
  EXPECT_EQ(result_back.outputs.size(), 1u);

  JobDoneMsg done;
  done.sed_uid = 2;
  done.call_id = 12;
  done.busy_seconds = 5041.0;
  const auto done_back = JobDoneMsg::decode(done.encode());
  EXPECT_DOUBLE_EQ(done_back.busy_seconds, 5041.0);
}

}  // namespace
}  // namespace gc::diet
