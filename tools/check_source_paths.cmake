# Source-path lint: every file a CMakeLists.txt names under the source tree
# (`${CMAKE_CURRENT_SOURCE_DIR}/...` or `${PROJECT_SOURCE_DIR}/...`, be it a
# -D value, a -P script or a DEPENDS input) must be tracked by git and must
# not match an ignore rule. A test input swallowed by .gitignore passes on
# the machine that made it and fails on every fresh checkout.
#
#   cmake -DREPO_ROOT=<repo> -P tools/check_source_paths.cmake
if(NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "check_source_paths.cmake needs -DREPO_ROOT=")
endif()
find_package(Git REQUIRED)

set(bad "")
foreach(list_file tools/CMakeLists.txt bench/CMakeLists.txt
                  examples/CMakeLists.txt tests/CMakeLists.txt)
  get_filename_component(list_dir ${list_file} DIRECTORY)
  file(READ ${REPO_ROOT}/${list_file} text)
  string(REGEX MATCHALL
         "\\$\\{(CMAKE_CURRENT_SOURCE_DIR|PROJECT_SOURCE_DIR)\\}/[^ \t\n\")]+"
         refs "${text}")
  foreach(ref IN LISTS refs)
    if(ref MATCHES "^\\$\\{CMAKE_CURRENT_SOURCE_DIR\\}/(.*)$")
      set(path "${list_dir}/${CMAKE_MATCH_1}")
    else()
      string(REGEX REPLACE "^\\$\\{PROJECT_SOURCE_DIR\\}/" "" path "${ref}")
    endif()
    execute_process(
      COMMAND ${GIT_EXECUTABLE} ls-files --error-unmatch -- ${path}
      WORKING_DIRECTORY ${REPO_ROOT}
      RESULT_VARIABLE untracked OUTPUT_QUIET ERROR_QUIET)
    execute_process(
      COMMAND ${GIT_EXECUTABLE} check-ignore -q --no-index -- ${path}
      WORKING_DIRECTORY ${REPO_ROOT}
      RESULT_VARIABLE not_ignored OUTPUT_QUIET ERROR_QUIET)
    if(NOT untracked EQUAL 0)
      list(APPEND bad "${list_file}: ${path} is not tracked by git")
    elseif(not_ignored EQUAL 0)
      list(APPEND bad "${list_file}: ${path} matches a .gitignore rule")
    endif()
  endforeach()
endforeach()

if(bad)
  list(JOIN bad "\n  " report)
  message(FATAL_ERROR "source paths missing from the tree:\n  ${report}")
endif()
