#include "baselines/backend_factory.h"

#include "baselines/dai.h"
#include "baselines/mqt_like.h"
#include "baselines/murali.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/compiler.h"

namespace mussti {

std::shared_ptr<const ICompilerBackend>
makeMusstiBackend(const MusstiConfig &config, const PhysicalParams &params)
{
    return std::make_shared<const MusstiCompiler>(config, params);
}

std::shared_ptr<const ICompilerBackend>
makeGridBackend(const std::string &which, const GridConfig &grid,
                const PhysicalParams &params)
{
    const std::string name = toLower(which);
    if (name == "murali")
        return std::make_shared<const MuraliCompiler>(grid, params);
    if (name == "dai")
        return std::make_shared<const DaiCompiler>(grid, params);
    if (name == "mqt")
        return std::make_shared<const MqtLikeCompiler>(grid, params);
    fatal("unknown baseline: " + which);
}

std::shared_ptr<const ICompilerBackend>
makeBackendFor(const std::string &name, const DeviceSpec &spec,
               MusstiConfig config)
{
    const bool mussti = toLower(name) == "mussti";
    const DeviceFamily wanted =
        mussti ? DeviceFamily::Eml : DeviceFamily::Grid;
    if (spec.family != wanted)
        fatalCoded("input.device-mismatch",
                   "backend " + name + " needs " +
                       (mussti ? "an eml" : "a grid") +
                       ":... device spec, got: " + spec.canonical());
    if (!mussti)
        return makeGridBackend(name, spec.grid);
    config.device = spec.eml;
    return makeMusstiBackend(config);
}

std::vector<std::string>
gridBackendNames()
{
    return {"murali", "dai", "mqt"};
}

} // namespace mussti
