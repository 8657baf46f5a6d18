#include "nn/serialize.hpp"

#include <stdexcept>

namespace qhdl::nn {

util::Json parameters_to_json(Module& model) {
  util::Json root = util::Json::object();
  root["format"] = util::Json{"qhdl-parameters-v1"};
  util::Json params = util::Json::array();
  for (const Parameter* p : model.parameters()) {
    util::Json entry = util::Json::object();
    entry["name"] = util::Json{p->name};
    entry["shape"] =
        util::Json::array_of(std::vector<double>(p->value.shape().dims().begin(),
                                                 p->value.shape().dims().end()));
    util::Json values = util::Json::array();
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      values.push_back(util::Json{p->value[i]});
    }
    entry["values"] = std::move(values);
    params.push_back(std::move(entry));
  }
  root["parameters"] = std::move(params);
  return root;
}

void parameters_from_json(Module& model, const util::Json& snapshot) {
  if (!snapshot.contains("format") ||
      snapshot.at("format").as_string() != "qhdl-parameters-v1") {
    throw std::invalid_argument("parameters_from_json: unknown format");
  }
  const util::Json& params = snapshot.at("parameters");
  const auto model_params = model.parameters();
  if (params.size() != model_params.size()) {
    throw std::invalid_argument(
        "parameters_from_json: parameter count mismatch (" +
        std::to_string(params.size()) + " stored vs " +
        std::to_string(model_params.size()) + " in model)");
  }
  for (std::size_t i = 0; i < model_params.size(); ++i) {
    const util::Json& entry = params.at(i);
    Parameter* target = model_params[i];
    if (entry.at("name").as_string() != target->name) {
      throw std::invalid_argument("parameters_from_json: name mismatch at #" +
                                  std::to_string(i));
    }
    const util::Json& shape = entry.at("shape");
    const auto& dims = target->value.shape().dims();
    if (shape.size() != dims.size()) {
      throw std::invalid_argument(
          "parameters_from_json: rank mismatch at #" + std::to_string(i));
    }
    for (std::size_t d = 0; d < dims.size(); ++d) {
      if (shape.at(d).as_count("shape") != dims[d]) {
        throw std::invalid_argument(
            "parameters_from_json: shape mismatch at #" + std::to_string(i));
      }
    }
    const util::Json& values = entry.at("values");
    if (values.size() != target->value.size()) {
      throw std::invalid_argument(
          "parameters_from_json: value count mismatch at #" +
          std::to_string(i));
    }
    for (std::size_t v = 0; v < target->value.size(); ++v) {
      target->value[v] = values.at(v).as_number();
    }
  }
}

void save_parameters(Module& model, const std::string& path) {
  parameters_to_json(model).write_file(path, /*indent=*/0);
}

void load_parameters(Module& model, const std::string& path) {
  parameters_from_json(model, util::Json::parse_file(path));
}

}  // namespace qhdl::nn
